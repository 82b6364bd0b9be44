package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// child runs one workload in a child process — a fresh heap, no GC state
// leaking from the workload before — and returns its result. The child's
// report is passed through.
func child(cfg config, name string, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
		"-out", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if _, err := os.Stdout.Write(out.Bytes()); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result on the last line: %w", name, err)
	}
	return &res, nil
}

// setResult is one whole set: per workload, the untraced and traced results.
type setResult struct {
	Env       map[string]any     `json:"env"`
	EndToEnd  map[string]*result `json:"end_to_end"`
	PerLayer  map[string]*result `json:"per_layer"`
	failed    int
	gateFails int
}

func newSet(cfg config) *setResult {
	return &setResult{
		Env: map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(), "go": runtime.Version(),
			"commit": commit(), "seed": cfg.seed, "seconds": cfg.seconds, "quick": cfg.quick,
		},
		EndToEnd: map[string]*result{}, PerLayer: map[string]*result{},
	}
}

// run adds one workload's untraced and traced runs to the set.
func (s *setResult) run(cfg config, w workloadDef) error {
	d := w.scaled(cfg.quick)
	s.Env[w.name] = map[string]any{
		"fact_rows": d.factRows, "dim_rows": d.dimRows, "dims": d.numDims,
		"pool_frames": d.spillFrames, "workers": min(max(d.workers, 1), runtime.NumCPU()),
		"ops_per_round": d.newSequence(cfg.seed).opsPerRound,
	}
	for _, traced := range []bool{false, true} {
		res, err := child(cfg, w.name, traced)
		if err != nil {
			return err
		}
		s.failed += res.Failed
		if traced {
			s.PerLayer[w.name] = res
			s.gateFails += int(res.get("bench.gates_failed"))
		} else {
			s.EndToEnd[w.name] = res
		}
	}
	return nil
}

// commit is the checkout's git revision, when there is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (s *setResult) verdict() error {
	if s.failed > 0 {
		return fmt.Errorf("%d ops failed or returned a wrong result", s.failed)
	}
	if s.gateFails > 0 {
		return fmt.Errorf("%d workload-validity gates failed", s.gateFails)
	}
	return nil
}

// runAll runs every workload once, untraced and traced, and writes
// results.json.
func runAll(cfg config) error {
	set := newSet(cfg)
	for _, w := range workloads {
		if err := set.run(cfg, w); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# results written to", path)
	return set.verdict()
}

// runSelfcheck runs the whole set twice on the same code and seed, prints
// the two side by side, and fails unless every end-to-end metric agrees
// within its own bound and every exact count is equal. The two sets are
// interleaved workload by workload, so the runs compared are a minute
// apart, not a whole set apart: the host's speed drifts by the minute.
func runSelfcheck(cfg config) error {
	a, b := newSet(cfg), newSet(cfg)
	for _, w := range workloads {
		for _, set := range []*setResult{a, b} {
			if err := set.run(cfg, w); err != nil {
				return err
			}
		}
	}
	bad := 0
	fmt.Printf("\n%-16s %-40s %14s %14s %9s\n", "workload", "metric", "first", "second", "moved")
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a.EndToEnd[w.name].get(d.name), b.EndToEnd[w.name].get(d.name)
			moved := relDiff(x, y)
			flag := ""
			if moved > d.bound {
				flag = "  > bound " + strconv.FormatFloat(d.bound, 'g', -1, 64)
				bad++
			}
			fmt.Printf("%-16s %-40s %14.6g %14.6g %8.2f%%%s\n", w.name, d.name, x, y, 100*moved, flag)
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			x, y := a.PerLayer[w.name].get(d.name), b.PerLayer[w.name].get(d.name)
			flag := ""
			//ml4db:allow floateq "counts that must repeat exactly: any difference at all is the finding"
			if x != y {
				flag = "  not equal"
				bad++
			}
			fmt.Printf("%-16s %-40s %14.6g %14.6g %9s%s\n", w.name, d.name, x, y, "exact", flag)
		}
	}
	if err := a.verdict(); err != nil {
		return err
	}
	if err := b.verdict(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code and seed", bad)
	}
	fmt.Println("# selfcheck: two sets agree")
	return nil
}

// relDiff is |x−y| as a share of the smaller magnitude.
func relDiff(x, y float64) float64 {
	d, lo := math.Abs(x-y), min(math.Abs(x), math.Abs(y))
	switch {
	case d == 0:
		return 0
	case lo == 0:
		return 1
	}
	return d / lo
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method, which is what Python's statistics.quantiles(v, n=4)
// computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runSpread runs the untraced pass of every workload on n consecutive seeds
// and prints, per end-to-end metric, the distance between the quartiles as
// a share of the median — the number the bound has to sit well above.
func runSpread(cfg config, n int) error {
	type key struct{ w, m string }
	vals := map[key][]float64{}
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + uint64(i)
		for _, w := range workloads {
			res, err := child(c, w.name, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d ops failed", w.name, c.seed, res.Failed)
			}
			for _, d := range endToEnd {
				vals[key{w.name, d.name}] = append(vals[key{w.name, d.name}], res.get(d.name))
			}
		}
	}
	fmt.Printf("\n%-16s %-20s %14s %14s %14s %9s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	wide := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(vals[key{w.name, d.name}])
			spread := (q3 - q1) / q2
			flag := ""
			if d.name != "setup_s" && spread > d.bound/3 {
				flag = "  > bound/3"
				wide++
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, d.name, q1, q2, q3, 100*spread, 100*d.bound, flag)
		}
	}
	fmt.Printf("# %d of %d spreads are above a third of their bound\n", wide, len(workloads)*(len(endToEnd)-1))
	return nil
}
