package analysis

import (
	"strings"
	"testing"
)

// Every analyzer has at least one fixture proving it fires and one proving
// it stays silent on correct code mirroring real repo idioms.

func TestDeterminismFires(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/cardest")
}

func TestDeterminismFiresInObs(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/obs")
}

func TestDeterminismFiresInModelsvc(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/modelsvc")
}

func TestDeterminismFiresInEngine(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/engine")
}

func TestDeterminismFiresInQuerystore(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/querystore")
}

func TestDeterminismFiresInAutopilot(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/autopilot")
}

func TestDeterminismFiresInExec(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/exec")
}

// The transitive half of determinism: a core package calling a non-core
// helper that spawns is reported at the call, with the chain to the go
// statement; the sanctioned mlmath.Pool fan-out is silent.
func TestSpawnReachFixture(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "spawnreach/engine", "spawnreach/helper", "spawnreach/mlmath")
}

// The same for the wall clock and the global RNG, with mlmath.SystemClock as
// the sanctioned bridge and caller-seeded *rand.Rand methods exempt.
func TestClockFlowFixture(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "clockflow/engine", "clockflow/helper", "clockflow/mlmath")
}

func TestDeterminismSilentOnCleanCoreCode(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/clean/mlmath")
}

func TestDeterminismSilentOutsideCorePackages(t *testing.T) {
	runFixture(t, DeterminismAnalyzer, "determinism/noncore")
}

func TestUncheckedErrFires(t *testing.T) {
	runFixture(t, UncheckedErrAnalyzer, "uncheckederr/bad")
}

func TestUncheckedErrSilentOnHandledErrors(t *testing.T) {
	runFixture(t, UncheckedErrAnalyzer, "uncheckederr/clean")
}

func TestFloatEqFires(t *testing.T) {
	runFixture(t, FloatEqAnalyzer, "floateq/bad")
}

func TestFloatEqSilentOnGuardIdioms(t *testing.T) {
	runFixture(t, FloatEqAnalyzer, "floateq/clean")
}

func TestNakedPanicFires(t *testing.T) {
	runFixture(t, NakedPanicAnalyzer, "nakedpanic/lib")
}

func TestNakedPanicSilentOnErrorsAndSuppressions(t *testing.T) {
	runFixture(t, NakedPanicAnalyzer, "nakedpanic/clean")
}

func TestNakedPanicSilentInCommands(t *testing.T) {
	runFixture(t, NakedPanicAnalyzer, "nakedpanic/cmd/app")
}

func TestMalformedSuppressionIsItselfADiagnostic(t *testing.T) {
	runFixture(t, NakedPanicAnalyzer, "nakedpanic/malformed")
}

func TestNumGuardFires(t *testing.T) {
	runFixture(t, NumGuardAnalyzer, "numguard/bad/nn")
}

func TestNumGuardSilentOnGuardedCode(t *testing.T) {
	runFixture(t, NumGuardAnalyzer, "numguard/clean/nn")
}

func TestLockCheckFixture(t *testing.T) { runFixture(t, LockCheckAnalyzer, "lockcheck") }
func TestSpanEndFixture(t *testing.T)   { runFixture(t, SpanEndAnalyzer, "spanend") }
func TestErrCmpFixture(t *testing.T)    { runFixture(t, ErrCmpAnalyzer, "errcmp") }

// TestStrictSuppressUnused pins the -strict-suppress contract: an allow
// comment that suppresses nothing is a finding in strict mode and silent
// otherwise — and only for analyzers that actually ran.
func TestStrictSuppressUnused(t *testing.T) {
	pkgs := loadFixturePkgs(t, "strictsup")
	var unused []Finding
	for _, f := range Analyze(pkgs, nil, All(), true) {
		if f.Analyzer == "suppression" {
			unused = append(unused, f)
		}
	}
	if len(unused) != 1 {
		t.Fatalf("strict mode: got %d suppression findings, want 1: %+v", len(unused), unused)
	}
	if !strings.Contains(unused[0].Message, "unused //ml4db:allow floateq") {
		t.Errorf("unexpected message %q", unused[0].Message)
	}

	for _, f := range Analyze(pkgs, nil, All(), false) {
		if f.Analyzer == "suppression" {
			t.Errorf("non-strict mode reported suppression finding %q", f.Message)
		}
	}

	// The floateq allow is only auditable when floateq runs: selecting a
	// different analyzer must not flag it.
	for _, f := range Analyze(pkgs, nil, []*Analyzer{ErrCmpAnalyzer}, true) {
		if f.Analyzer == "suppression" {
			t.Errorf("strict mode flagged an allow for an analyzer that did not run: %q", f.Message)
		}
	}
}

// TestSelfAnalysisClean runs the full analyzer suite — strict suppression,
// call graph over everything loaded — over internal/analysis itself: the
// analysis code must satisfy its own contracts without a single suppression.
func TestSelfAnalysisClean(t *testing.T) {
	loader := fixtureLoader(t)
	pkgs, err := loader.Load([]string{"./internal/analysis"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("%s: type error: %v", pkg.Path, terr)
		}
	}
	for _, f := range Analyze(pkgs, loader.AllLoaded(), All(), true) {
		if f.Suppressed {
			continue
		}
		t.Errorf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
}
