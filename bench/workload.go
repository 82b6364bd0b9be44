package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ml4db/internal/cardest"
	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/storage"
)

// A workloadDef fixes one workload's data, statements and engine wiring.
// The engine configuration is otherwise the same everywhere — Metrics and
// Store attached, Trace off, default CacheSize and MaxConcurrent — because
// that is what a deployment would run.
type workloadDef struct {
	name string
	why  string

	factRows, dimRows, numDims int
	// indexCols are the fact columns that get a secondary index; indexDimIDs
	// indexes every dimension's id column too.
	indexCols   []string
	indexDimIDs bool
	// spillFrames > 0 spills fact to disk behind a buffer pool of that many
	// frames.
	spillFrames int
	// workers > 1 gives the engine an mlmath.Pool of min(workers, nproc).
	workers int
	// learned trains an MLP cardinality estimator at set-up and installs it.
	learned bool

	sequence func(seed uint64, d *workloadDef) *sequence
	// quick marks a -quick smoke run: rounds are a tenth as long.
	quick bool
	// roundsPerSecond is about how many rounds of the sequence the reference
	// box completes per second. It only sizes the traced run's fixed-count
	// passes from -seconds.
	roundsPerSecond float64
	// allPlanCacheHits says which of the two designed plan-cache behaviours
	// the workload has: every measured op hits, or every measured op misses.
	allPlanCacheHits bool
}

func analyticDef(name, why string, roundsPerSecond float64) workloadDef {
	return workloadDef{
		name: name, why: why, roundsPerSecond: roundsPerSecond,
		factRows: 60000, dimRows: 2000, numDims: 4,
		sequence:         func(seed uint64, _ *workloadDef) *sequence { return analyticSequence(seed) },
		allPlanCacheHits: true,
	}
}

var workloads = func() []workloadDef {
	pointWarm := workloadDef{
		name:     "point_warm",
		why:      "indexed point/range/dim lookups with a warm plan cache: the front end (parse, cache, record, projection) is most of each query",
		factRows: 200000, dimRows: 2000, numDims: 4,
		indexCols: []string{"attr2", "attr0"}, indexDimIDs: true,
		roundsPerSecond: 12,
		sequence: func(seed uint64, d *workloadDef) *sequence {
			return pointWarmSequence(seed, d.numDims, d.dimRows)
		},
		allPlanCacheHits: true,
	}
	adhoc := workloadDef{
		name:     "adhoc_plan",
		why:      "5- to 7-table star joins with fresh literals on every op: 0 % plan-cache hits, so join-order search and learned-estimator calls dominate",
		factRows: 3000, dimRows: 200, numDims: 6,
		learned: true, roundsPerSecond: 6,
		sequence: func(seed uint64, d *workloadDef) *sequence { return adhocSequence(seed, d.numDims, d.dimRows) },
	}
	mem := analyticDef("analytic_mem",
		"scan/join/top-N over an in-memory table, serial: executor operators and row materialisation dominate", 3.5)
	par := analyticDef("analytic_par",
		"the analytic_mem data and statements on a 2-worker pool: the exchange path instead of the serial loop", 3)
	par.workers = 2
	spill := analyticDef("analytic_spill",
		"the analytic_mem data and statements with fact spilled behind a pool holding about 15 % of its pages: page fetch, decode and eviction dominate", 1)
	spill.spillFrames = 128
	return []workloadDef{pointWarm, adhoc, mem, par, spill}
}()

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled shrinks the data and the rounds for -quick smoke runs.
func (d workloadDef) scaled(quick bool) workloadDef {
	if quick {
		d.quick = true
		d.factRows /= 10
		if d.spillFrames > 0 {
			d.spillFrames /= 10
		}
	}
	return d
}

// newSequence is the workload's operation sequence for the seed.
func (d *workloadDef) newSequence(seed uint64) *sequence {
	seq := d.sequence(seed, d)
	if d.quick {
		seq.opsPerRound = max(len(seq.cycle), seq.opsPerRound/10)
	}
	return seq
}

// env is one set-up instance of a workload: data, engine, and everything
// the engine was wired to.
type env struct {
	def     workloadDef
	schema  *datagen.StarSchema
	cat     *catalog.Catalog
	ref     *refDB
	metrics *obs.Registry
	store   *querystore.Store
	bufPool *storage.Pool             // nil unless spilled
	workers *mlmath.Pool              // nil unless parallel
	adapter *cardest.OptimizerAdapter // nil unless learned
	est     *timedEstimator           // the adapter's timing wrapper, traced pass only
	eng     *engine.Engine
	sess    *engine.Session

	spillDir string
	setup    time.Duration
}

// setUp builds the workload's environment from the seed and times it:
// data generation (with ANALYZE), index build, spill, estimator training,
// engine.New. tracer is nil for every pass but the traced one. The
// reference evaluator's capture of the column arrays is not engine work and
// is excluded from the timing.
func setUp(def workloadDef, seed uint64, tracer *obs.Tracer, tmpRoot string) (*env, error) {
	e := &env{def: def}
	start := time.Now()
	schema, err := datagen.NewStarSchema(mlmath.NewRNG(seed), def.factRows, def.dimRows, def.numDims)
	if err != nil {
		return nil, err
	}
	e.schema, e.cat = schema, schema.Cat
	fact := e.cat.Table(schema.FactID)
	for _, name := range def.indexCols {
		col := fact.ColIndex(name)
		if col < 0 {
			return nil, fmt.Errorf("%s: fact has no column %q", def.name, name)
		}
		fact.AddIndex(catalog.BuildSecondaryIndex(fact, col))
	}
	if def.indexDimIDs {
		for _, id := range schema.DimIDs {
			dim := e.cat.Table(id)
			dim.AddIndex(catalog.BuildSecondaryIndex(dim, dim.ColIndex("id")))
		}
	}
	generated := time.Since(start)
	e.ref = newRefDB(e.cat)
	start = time.Now()

	e.metrics = obs.NewRegistry()
	if def.spillFrames > 0 {
		if e.spillDir, err = os.MkdirTemp(tmpRoot, "spill-"); err != nil {
			return nil, err
		}
		e.bufPool = storage.NewPool(storage.PoolOptions{Capacity: def.spillFrames, Metrics: e.metrics})
		if err := fact.SpillToDisk(filepath.Join(e.spillDir, "fact.heap"), e.bufPool); err != nil {
			e.close()
			return nil, err
		}
	}
	storeOpts := querystore.Options{Catalog: e.cat}
	if e.bufPool != nil {
		storeOpts.Pool = e.bufPool
	}
	e.store = querystore.New(storeOpts)
	if def.workers > 1 {
		e.workers = mlmath.NewPool(min(def.workers, runtime.NumCPU()))
	}
	e.eng = engine.New(e.cat, engine.Options{Metrics: e.metrics, Store: e.store, Trace: tracer, Pool: e.workers})
	if def.learned {
		if e.adapter, err = trainEstimator(schema, seed); err != nil {
			e.close()
			return nil, err
		}
		var est optimizer.CardEstimator = e.adapter
		if tracer != nil {
			e.est = &timedEstimator{inner: e.adapter, clock: mlmath.SystemClock{}}
			est = e.est
		}
		if err := e.eng.SetEstimator(est, 1); err != nil {
			e.close()
			return nil, err
		}
	}
	e.sess = e.eng.Session()
	e.setup = generated + time.Since(start)
	return e, nil
}

// trainEstimator fits the MLP selectivity model on the fact table's filter
// columns, over predicates of the kind adhoc_plan issues.
func trainEstimator(schema *datagen.StarSchema, seed uint64) (*cardest.OptimizerAdapter, error) {
	fact := schema.Cat.Table(schema.FactID)
	f, err := cardest.NewFeaturizer(fact, schema.AttrCols)
	if err != nil {
		return nil, err
	}
	rng := mlmath.NewRNG(seed + 1)
	const samples = 600
	preds := make([][]expr.Pred, samples)
	fracs := make([]float64, samples)
	for i := range preds {
		lo := int64(rng.Intn(900))
		preds[i] = []expr.Pred{
			{Col: schema.AttrCols[0], Op: expr.BETWEEN, Lo: lo, Hi: lo + int64(10+rng.Intn(100))},
			{Col: schema.AttrCols[1], Op: expr.GE, Lo: int64(rng.Intn(600))},
		}
		fracs[i] = cardest.TrueFraction(fact, preds[i])
	}
	mlp := cardest.NewMLPEstimator(f, []int{32, 16}, rng)
	mlp.Train(preds, fracs, 80)
	return &cardest.OptimizerAdapter{
		Learned:      mlp,
		LearnedTable: schema.FactID,
		Fallback:     &optimizer.HistEstimator{Cat: schema.Cat},
	}, nil
}

// close releases the spill file, the worker pool and the temp directory.
func (e *env) close() {
	if e.bufPool != nil {
		if fact := e.cat.Table(e.schema.FactID); fact.Disk != nil {
			_ = fact.Disk.Close() // scratch file: removed below whatever Close says
		}
	}
	e.workers.Close()
	if e.spillDir != "" {
		_ = os.RemoveAll(e.spillDir) // best effort on a scratch directory
	}
}

// factPages returns the heap-file page count of the spilled fact table.
func (e *env) factPages() int {
	return e.cat.Table(e.schema.FactID).NumDiskPages()
}
