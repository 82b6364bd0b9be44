package experiments

import (
	"fmt"
	"strings"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (F1, T1, E1...).
	ID string
	// Title describes the artifact or claim under reproduction.
	Title string
	// Claim is the paper statement being checked.
	Claim string
	// Rows are the formatted result lines (the regenerated table/figure).
	Rows []string
	// Holds reports whether the claimed direction held in this run.
	Holds bool
	// Metrics exposes headline numbers for bench reporting.
	Metrics map[string]float64
}

func newReport(id, title, claim string) *Report {
	return &Report{ID: id, Title: title, Claim: claim, Metrics: map[string]float64{}}
}

func (r *Report) rowf(format string, args ...interface{}) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	status := "HOLDS"
	if !r.Holds {
		status = "DOES NOT HOLD"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "claim: %s\n", r.Claim)
	for _, row := range r.Rows {
		b.WriteString("  ")
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is an experiment entry point. Seed controls all randomness.
type Runner struct {
	ID  string
	Run func(seed uint64) (*Report, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"F1", F1},
		{"T1", T1},
		{"E1", E1},
		{"E2", E2},
		{"E3", E3},
		{"E4", E4},
		{"E5", E5},
		{"E6", E6},
		{"E7", E7},
		{"E8", E8},
		{"E9", E9},
		{"E10", E10},
		{"E11", E11},
		{"E12", E12},
		{"E13", E13},
		{"E14", E14},
		{"E15", E15},
		{"E16", E16},
		{"E17", E17},
		{"E18", E18},
		{"E19", E19},
		{"E20", E20},
		{"E21", E21},
		{"E22", E22},
		{"E23", E23},
		{"E24", E24},
		{"E25", E25},
		{"AblationBaoArms", AblationBaoArms},
		{"AblationPlatonBudget", AblationPlatonBudget},
		{"AblationWidth", AblationWidth},
		{"AblationRMIFanout", AblationRMIFanout},
		{"AblationPGMEps", AblationPGMEps},
	}
}
