package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestAllRunnersRegistered(t *testing.T) {
	want := []string{
		"F1", "T1",
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
		"E21", "E22", "E23", "E24", "E25",
		"AblationBaoArms", "AblationPlatonBudget", "AblationWidth",
		"AblationRMIFanout", "AblationPGMEps",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d runners, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("runner %d = %s, want %s", i, all[i].ID, id)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := newReport("X1", "test title", "test claim")
	r.rowf("row %d", 1)
	r.Holds = true
	s := r.String()
	for _, frag := range []string{"X1", "test title", "HOLDS", "test claim", "row 1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, s)
		}
	}
	r.Holds = false
	if !strings.Contains(r.String(), "DOES NOT HOLD") {
		t.Error("negative status not rendered")
	}
}

// TestFastExperimentsHold is the tier-1 assertion of the paper's claimed
// directions: every registered experiment, end to end at full size and seed
// 42, except the ones listed here, which only the root BenchmarkExperiment
// runs and checks. The learned optimizers' experiments (pinnedRows) must
// also reproduce their rows and Metrics byte for byte.
func TestFastExperimentsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments in -short mode")
	}
	notInTier1 := map[string]string{
		"E1":  "takes 9-14 s on 2 vCPU, more than all the others together",
		"E2":  "Holds compares wall-clock lookup times (lookupNanos)",
		"E13": "Holds compares wall-clock training times (TrainSeconds)",
	}
	registered := map[string]bool{}
	for _, runner := range All() {
		registered[runner.ID] = true
	}
	for id := range notInTier1 {
		if !registered[id] {
			t.Fatalf("excluded experiment %s is not registered", id)
		}
	}
	for _, runner := range All() {
		t.Run(runner.ID, func(t *testing.T) {
			if why, skip := notInTier1[runner.ID]; skip {
				t.Skip(why)
			}
			rep, err := runner.Run(42)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Holds {
				t.Errorf("did not hold:\n%s", rep)
			}
			if len(rep.Rows) == 0 {
				t.Error("produced no rows")
			}
			if pinnedRows[runner.ID] {
				checkGolden(t, runner.ID+".golden", goldenText(rep))
			}
		})
	}
}

// pinnedRows names the experiments whose seed-42 rows and Metrics are pinned
// in testdata/<ID>.golden: the value-search agents (E8, E17-E19), which
// train a network through many RNG draws, so a refactor that reorders one
// draw or one training set moves their numbers without flipping a claim.
// Regenerate with UPDATE_GOLDEN=1 only for an intended change.
var pinnedRows = map[string]bool{"E8": true, "E17": true, "E18": true, "E19": true}

// goldenText renders a report's rows, then its Metrics sorted by name with
// every float digit.
func goldenText(rep *Report) string {
	var b strings.Builder
	for _, row := range rep.Rows {
		b.WriteString(row + "\n")
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "metric %s = %v\n", k, rep.Metrics[k])
	}
	return b.String()
}

// checkGolden compares got with testdata/name, rewriting the file first when
// UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("rows differ from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestExperimentsDeterministic: the same seed must give identical rows for a
// deterministic (non-wall-clock) experiment.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments in -short mode")
	}
	run := func() []string {
		rep, err := E5(7)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("row counts differ across runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}
