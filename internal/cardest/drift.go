package cardest

import (
	"maps"
	"math"
	"strconv"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
)

// mathematical helpers shared by the kernel code.
const pi = math.Pi

func sqrt(x float64) float64 { return math.Sqrt(x) }
func acos(x float64) float64 { return math.Acos(x) }
func sin(x float64) float64  { return math.Sin(x) }

// DriftAdapter implements Warper-style adaptation (Li et al., SIGMOD 2022):
// it wraps a learned estimator, monitors the q-errors of recent predictions
// against observed true cardinalities, and when the rolling error exceeds a
// threshold it trains a replacement from a buffer of recent observations —
// recovering from data and workload shift without manual intervention
// (the §3.3 open problem).
//
// Retraining never mutates the serving model. The adapter trains a cloned
// candidate off to the side, optionally publishes it to a model registry,
// and deploys it through a modelsvc shadow gate: the candidate shadows the
// incumbent on live observations and is promoted — an atomic hot-swap —
// only if its windowed error beats the incumbent's. A worse candidate is
// rejected without ever serving a request.
type DriftAdapter struct {
	// Model is the estimator currently serving reads. It is replaced (never
	// trained in place) when a candidate wins its shadow window.
	Model *MLPEstimator
	// Window is the number of recent q-errors monitored, and the shadow
	// window length used by the promotion gate.
	Window int
	// Threshold triggers candidate training when the rolling median q-error
	// exceeds it.
	Threshold float64
	// BufferSize bounds the retraining buffer (most recent observations).
	BufferSize int
	// Epochs used for each candidate training run.
	Epochs int
	// Registry, when non-nil, receives every trained candidate (and the
	// initial incumbent) as a versioned checkpoint before it shadows.
	Registry *modelsvc.Registry
	// ModelName names the registry entry; empty defaults to "cardest-mlp".
	ModelName string

	recentQErr []float64
	bufQ       [][]expr.Pred
	bufY       []float64
	rollout    *modelsvc.Rollout
	nextVer    int
	// Retrainings counts candidates trained (each enters the shadow gate;
	// not all are promoted).
	Retrainings int
	// Promotions counts candidates that won their shadow window and were
	// hot-swapped in as the serving model.
	Promotions int
	// Rejections counts candidates the gate refused to promote.
	Rejections int
	// PublishErr records the most recent registry-publish failure, if any
	// (publishing is lineage, not a gate: the candidate still shadows).
	PublishErr error
	// Metrics, when non-nil, receives the cardest.qerror histogram and the
	// cardest.{retrainings,promotions,rejections} counters.
	Metrics *obs.Registry
	// Events, when non-nil, receives the shadow gate's deployment-lifecycle
	// events (see modelsvc.RolloutOptions.Events) — the hook a workload
	// observatory uses to tag q-error trends with estimator versions. Set it
	// before the first Observe/StartShadow; the gate captures it when built.
	Events func(modelsvc.RolloutEvent)
}

// qerrBuckets cover q-errors from perfect (1) up to 5 orders of magnitude.
var qerrBuckets = obs.ExpBuckets(1, 2, 17)

// NewDriftAdapter wraps the model with default monitoring parameters.
func NewDriftAdapter(model *MLPEstimator) *DriftAdapter {
	return &DriftAdapter{
		Model:      model,
		Window:     50,
		Threshold:  3,
		BufferSize: 400,
		Epochs:     60,
	}
}

// fracPredictor adapts an MLPEstimator to modelsvc.Predictor over featurized
// inputs: Predict takes the feature vector and returns the estimated
// selectivity fraction.
type fracPredictor struct{ est *MLPEstimator }

func (p fracPredictor) Predict(x []float64) float64 { return invLogit(p.est.Net.Predict1(x)) }

// fracQError scores fraction predictions with the same pseudo-count q-error
// the monitor uses, so the gate and the monitor agree on "better".
func fracQError(pred, truth float64) float64 {
	const n = 1e6
	return mlmath.QError(pred*n, truth*n)
}

// ensureRollout builds the shadow gate on first use, capturing the window,
// clock, and metrics configured after construction. When a registry is
// attached the incumbent is published as the baseline version so the
// registry holds the full serving lineage.
func (d *DriftAdapter) ensureRollout() {
	if d.rollout != nil {
		return
	}
	version := 1
	d.nextVer = 2
	if d.Registry != nil {
		man, err := modelsvc.PublishModule(d.Registry, d.registryName(), d.Model.Net,
			map[string]string{"component": "cardest", "trigger": "baseline"})
		if err != nil {
			d.PublishErr = err
		} else {
			version = man.Version
			d.nextVer = man.Version + 1
		}
	}
	d.rollout = modelsvc.NewRollout(
		modelsvc.Deployment{Version: version, Model: fracPredictor{est: d.Model}},
		modelsvc.RolloutOptions{
			Window:  d.Window,
			ErrFn:   fracQError,
			Clock:   d.Model.Clock,
			Metrics: d.Metrics,
			Events:  d.Events,
		})
}

func (d *DriftAdapter) registryName() string {
	if d.ModelName != "" {
		return d.ModelName
	}
	return "cardest-mlp"
}

// Rollout exposes the underlying shadow gate (built on first Observe or
// StartShadow; nil before that).
func (d *DriftAdapter) Rollout() *modelsvc.Rollout { return d.rollout }

// EstimateFraction serves from the current incumbent.
func (d *DriftAdapter) EstimateFraction(preds []expr.Pred) float64 {
	return d.Model.EstimateFraction(preds)
}

// Name implements Estimator.
func (d *DriftAdapter) Name() string { return "mlp+warper" }

// SizeBytes implements Estimator (model plus buffer).
func (d *DriftAdapter) SizeBytes() int {
	return d.Model.SizeBytes() + len(d.bufQ)*d.Model.F.Dim()*8
}

// Observe feeds back the true selectivity of an executed query. The adapter
// records the incumbent's q-error, buffers the observation, forwards it to
// the shadow gate (where a candidate may be promoted or rejected), and —
// when no candidate is in flight and the rolling median q-error crosses the
// threshold — trains a new candidate and deploys it into the gate.
func (d *DriftAdapter) Observe(preds []expr.Pred, trueFraction float64) {
	d.ensureRollout()
	x := d.Model.F.Features(preds)
	est := invLogit(d.Model.Net.Predict1(x))
	q := fracQError(est, trueFraction)
	d.Metrics.Histogram("cardest.qerror", qerrBuckets).Observe(q)
	d.recentQErr = append(d.recentQErr, q)
	if len(d.recentQErr) > d.Window {
		d.recentQErr = d.recentQErr[len(d.recentQErr)-d.Window:]
	}
	d.bufQ = append(d.bufQ, preds)
	d.bufY = append(d.bufY, trueFraction)
	if len(d.bufQ) > d.BufferSize {
		d.bufQ = d.bufQ[len(d.bufQ)-d.BufferSize:]
		d.bufY = d.bufY[len(d.bufY)-d.BufferSize:]
	}

	switch d.rollout.Observe(x, trueFraction) {
	case modelsvc.OutcomePromoted:
		d.Promotions++
		d.Model = d.rollout.Current().Model.(fracPredictor).est
		d.Metrics.Counter("cardest.promotions").Inc()
		d.recentQErr = d.recentQErr[:0]
	case modelsvc.OutcomeRejected:
		d.Rejections++
		d.Metrics.Counter("cardest.rejections").Inc()
		d.recentQErr = d.recentQErr[:0]
	}
	if d.rollout.State() == modelsvc.Shadowing {
		// A candidate is already under evaluation; let the gate decide
		// before training another.
		return
	}
	if len(d.recentQErr) >= d.Window && mlmath.Median(d.recentQErr) > d.Threshold {
		d.retrainCandidate()
	}
}

// retrainCandidate clones the incumbent, fits the clone on the buffered
// observations, and hands it to the shadow gate. The incumbent is never
// touched: if the candidate is worse, the gate rejects it and serving
// continues unchanged.
func (d *DriftAdapter) retrainCandidate() {
	trigger := d.MedianRecentQError()
	cand := d.Model.Clone(nil)
	cand.Train(d.bufQ, d.bufY, d.Epochs)
	d.Retrainings++
	d.Metrics.Counter("cardest.retrainings").Inc()
	d.recentQErr = d.recentQErr[:0]
	d.StartShadow(cand, map[string]string{
		"trigger":     "drift",
		"median_qerr": strconv.FormatFloat(trigger, 'g', 6, 64),
	})
}

// StartShadow deploys cand into the canary gate as a shadow candidate,
// publishing it to the registry when one is attached (meta annotates the
// manifest). The serving model is untouched until the candidate wins its
// window; a worse candidate is rejected without serving a single request.
// Returns the candidate's version. Exported so callers — and the
// worse-candidate regression test — can push externally trained candidates
// through the same gate drift retraining uses.
func (d *DriftAdapter) StartShadow(cand *MLPEstimator, meta map[string]string) int {
	d.ensureRollout()
	version := d.nextVer
	d.nextVer++
	if d.Registry != nil {
		tagged := make(map[string]string, len(meta)+1)
		maps.Copy(tagged, meta)
		tagged["component"] = "cardest"
		man, err := modelsvc.PublishModule(d.Registry, d.registryName(), cand.Net, tagged)
		if err != nil {
			d.PublishErr = err
		} else {
			version = man.Version
			d.nextVer = man.Version + 1
		}
	}
	d.rollout.SetCandidate(modelsvc.Deployment{Version: version, Model: fracPredictor{est: cand}})
	return version
}

// MedianRecentQError exposes the monitored error level.
func (d *DriftAdapter) MedianRecentQError() float64 {
	if len(d.recentQErr) == 0 {
		return 1
	}
	return mlmath.Median(d.recentQErr)
}
