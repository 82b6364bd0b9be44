package analysis

import "testing"

// findNode looks a function up by its diagnostic name (pkg.Func or
// pkg.Recv.Method).
func findNode(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no call-graph node named %s", name)
	return nil
}

func TestCallGraphDirectEdges(t *testing.T) {
	pkgs := loadFixturePkgs(t, "spawnreach/engine", "spawnreach/helper", "spawnreach/mlmath")
	g := BuildCallGraph(pkgs)

	train := findNode(t, g, "engine.Train")
	fanOut := findNode(t, g, "helper.FanOut")
	if len(train.Calls) != 1 || train.Calls[0].Callee != fanOut {
		t.Fatalf("engine.Train should have exactly one edge, to helper.FanOut; got %+v", train.Calls)
	}
	if train.Calls[0].ViaInterface {
		t.Error("direct call marked ViaInterface")
	}

	if len(fanOut.GoStmts) != 1 {
		t.Errorf("helper.FanOut: got %d go statements, want 1", len(fanOut.GoStmts))
	}
	if sum := findNode(t, g, "helper.Sum"); len(sum.GoStmts) != 0 || len(sum.Calls) != 0 {
		t.Errorf("helper.Sum should be a leaf with no spawns: %+v", sum)
	}

	// The spawn inside NewPool's loop is attributed to NewPool itself.
	if newPool := findNode(t, g, "mlmath.NewPool"); len(newPool.GoStmts) != 1 {
		t.Errorf("mlmath.NewPool: got %d go statements, want 1", len(newPool.GoStmts))
	}
}

func TestCallGraphInterfaceResolution(t *testing.T) {
	pkgs := loadFixturePkgs(t, "clockflow/engine", "clockflow/helper", "clockflow/mlmath")
	g := BuildCallGraph(pkgs)

	// engine.Injected calls Clock.Now through the interface; the graph must
	// resolve it to the one module implementation, SystemClock.Now.
	injected := findNode(t, g, "engine.Injected")
	sysNow := findNode(t, g, "mlmath.SystemClock.Now")
	var viaIface bool
	for _, c := range injected.Calls {
		if c.Callee == sysNow {
			if !c.ViaInterface {
				t.Error("interface-dispatched edge not marked ViaInterface")
			}
			viaIface = true
		}
	}
	if !viaIface {
		t.Errorf("engine.Injected has no edge to mlmath.SystemClock.Now: %+v", injected.Calls)
	}
}

func TestCallGraphExternals(t *testing.T) {
	pkgs := loadFixturePkgs(t, "clockflow/engine", "clockflow/helper", "clockflow/mlmath")
	g := BuildCallGraph(pkgs)

	stamp := findNode(t, g, "helper.Stamp")
	var sawNow bool
	for _, e := range stamp.Externals {
		if e.PkgPath == "time" && e.Name == "Now" {
			sawNow = true
		}
	}
	if !sawNow {
		t.Errorf("helper.Stamp externals missing time.Now: %+v", stamp.Externals)
	}

	// Methods on a caller-owned *rand.Rand render as Rand.Float64 — the shape
	// determinism's fact table relies on to exempt seeded sources.
	scaled := findNode(t, g, "helper.Scaled")
	var sawMethod bool
	for _, e := range scaled.Externals {
		if e.PkgPath == "math/rand" && e.Name == "Rand.Float64" {
			sawMethod = true
		}
	}
	if !sawMethod {
		t.Errorf("helper.Scaled externals missing Rand.Float64: %+v", scaled.Externals)
	}
	if facts := clockFacts(scaled); len(facts) != 0 {
		t.Errorf("seeded-source calls classified as ambient: %+v", facts)
	}
}

func TestTaintPropagation(t *testing.T) {
	pkgs := loadFixturePkgs(t, "spawnreach/engine", "spawnreach/helper", "spawnreach/mlmath")
	g := BuildCallGraph(pkgs)

	res := g.taint("spawn", func(n *FuncNode) (taintFact, bool) {
		if len(n.GoStmts) > 0 && !mlmathFuncMentions(n, "Pool") {
			return taintFact{n.GoStmts[0], "go statement"}, true
		}
		return taintFact{}, false
	})

	fanOut := findNode(t, g, "helper.FanOut")
	if !res.isTainted(fanOut) {
		t.Error("helper.FanOut should carry its own go-statement fact")
	}
	for _, name := range []string{"engine.Train", "engine.TrainIndirect", "helper.Indirect"} {
		if !res.isTainted(findNode(t, g, name)) {
			t.Errorf("%s should be transitively tainted", name)
		}
	}
	for _, name := range []string{"helper.Sum", "engine.SumOnly", "mlmath.NewPool", "engine.PoolFanOut"} {
		if res.isTainted(findNode(t, g, name)) {
			t.Errorf("%s should not be tainted", name)
		}
	}

	// Two hops: TrainIndirect -> Indirect -> FanOut(go stmt).
	want := "engine.TrainIndirect -> helper.Indirect -> helper.FanOut (go statement at helper.go:11)"
	if got := res.path(pkgs[0].Fset, findNode(t, g, "engine.TrainIndirect")); got != want {
		t.Errorf("path from TrainIndirect = %q, want %q", got, want)
	}
}
