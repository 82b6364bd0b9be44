package cardest

import (
	"maps"
	"strconv"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
)

// DriftAdapter implements Warper-style adaptation (Li et al., SIGMOD 2022):
// it monitors the q-errors of the serving estimator's predictions against
// observed true cardinalities, buffers recent observations, and when the
// rolling error exceeds a threshold it trains a replacement from that
// buffer — recovering from data and workload shift without manual
// intervention (the §3.3 open problem).
//
// Deployment is the modelsvc.Rollout's, not the adapter's. Retraining never
// mutates the serving model: the adapter trains a cloned candidate off to
// the side, optionally publishes it to a model registry, and sets it as the
// rollout's candidate, which shadows the incumbent on live observations and
// is promoted — an atomic hot-swap — only if its windowed error beats the
// incumbent's. A worse candidate is rejected without ever serving a
// request. Promotion and rejection counts live in Rollout().Stats().
type DriftAdapter struct {
	// Model is the estimator currently serving reads. It is replaced (never
	// trained in place) when a candidate wins its shadow window.
	Model *MLPEstimator
	// Window is the number of recent q-errors monitored, and the shadow
	// window length of the rollout.
	Window int
	// Registry, when non-nil, receives every trained candidate (and the
	// initial incumbent) as a versioned checkpoint named modelName before it
	// shadows.
	Registry *modelsvc.Registry

	recentQErr []float64
	bufQ       [][]expr.Pred
	bufY       []float64
	rollout    *modelsvc.Rollout
	nextVer    int
	// Retrainings counts candidates trained (each enters the shadow window;
	// not all are promoted).
	Retrainings int
	// PublishErr records the most recent registry-publish failure, if any
	// (publishing is lineage, not a gate: the candidate still shadows).
	PublishErr error
	// Metrics, when non-nil, receives the cardest.retrainings counter and,
	// through the rollout, the modelsvc.rollout.* instruments (the
	// incumbent's q-error on every observation among them).
	Metrics *obs.Registry
}

const (
	// retrainThreshold triggers candidate training when the rolling median
	// q-error exceeds it.
	retrainThreshold = 3
	// bufferSize bounds the retraining buffer (most recent observations).
	bufferSize = 400
	// retrainEpochs is each candidate's training run.
	retrainEpochs = 60
	// modelName names the registry entry.
	modelName = "cardest-mlp"
)

// NewDriftAdapter wraps the model with default monitoring parameters.
func NewDriftAdapter(model *MLPEstimator) *DriftAdapter {
	return &DriftAdapter{Model: model, Window: 50}
}

// fracPredictor adapts an MLPEstimator to modelsvc.Predictor over featurized
// inputs: Predict takes the feature vector and returns the estimated
// selectivity fraction.
type fracPredictor struct{ est *MLPEstimator }

func (p fracPredictor) Predict(x []float64) float64 { return invLogit(p.est.Net.Predict1(x)) }

// fracQError scores fraction predictions with a pseudo-count q-error; the
// rollout uses it both to compare candidates and to report the incumbent's
// error the monitor reads, so the two agree on "better".
func fracQError(pred, truth float64) float64 {
	const n = 1e6
	return mlmath.QError(pred*n, truth*n)
}

// Rollout returns the canary rollout candidates deploy through, building it
// on first use: the window, clock and metrics configured after construction
// are captured then, and an attached registry receives the incumbent as the
// baseline version, so it holds the full serving lineage.
func (d *DriftAdapter) Rollout() *modelsvc.Rollout {
	if d.rollout == nil {
		d.nextVer = 1
		version := d.publish(d.Model, map[string]string{"trigger": "baseline"})
		d.rollout = modelsvc.NewRollout(
			modelsvc.Deployment{Version: version, Model: fracPredictor{est: d.Model}},
			modelsvc.RolloutOptions{Window: d.Window, ErrFn: fracQError, Clock: d.Model.Clock, Metrics: d.Metrics})
	}
	return d.rollout
}

// publish checkpoints est to the registry, when one is attached, tagging a
// copy of meta with component=cardest, and returns the version est deploys
// under: the registry's, or the next local number when there is no registry
// or the publish failed.
func (d *DriftAdapter) publish(est *MLPEstimator, meta map[string]string) int {
	version := d.nextVer
	if d.Registry != nil {
		tagged := make(map[string]string, len(meta)+1)
		maps.Copy(tagged, meta)
		tagged["component"] = "cardest"
		if man, err := modelsvc.PublishModule(d.Registry, modelName, est.Net, tagged); err != nil {
			d.PublishErr = err
		} else {
			version = man.Version
		}
	}
	d.nextVer = version + 1
	return version
}

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

// Observe feeds back the true selectivity of an executed query. The rollout
// scores the incumbent (and any shadowing candidate, which it may promote
// or reject); the adapter monitors the incumbent's q-error the rollout
// reports, buffers the observation, and — when no candidate is in flight
// and the rolling median q-error crosses the threshold — trains a new
// candidate and deploys it into the rollout.
func (d *DriftAdapter) Observe(preds []expr.Pred, trueFraction float64) {
	out, q := d.Rollout().Observe(d.Model.F.Features(preds), trueFraction)
	d.recentQErr = append(d.recentQErr, q)
	if len(d.recentQErr) > d.Window {
		d.recentQErr = d.recentQErr[len(d.recentQErr)-d.Window:]
	}
	d.bufQ = append(d.bufQ, preds)
	d.bufY = append(d.bufY, trueFraction)
	if len(d.bufQ) > bufferSize {
		d.bufQ = d.bufQ[len(d.bufQ)-bufferSize:]
		d.bufY = d.bufY[len(d.bufY)-bufferSize:]
	}

	if out == modelsvc.OutcomePromoted {
		d.Model = d.rollout.Current().Model.(fracPredictor).est
	}
	if out != modelsvc.OutcomeNone {
		d.recentQErr = d.recentQErr[:0] // a decided window restarts the monitor
	}
	if d.rollout.State() == modelsvc.Shadowing {
		// A candidate is already under evaluation; let the rollout decide
		// before training another.
		return
	}
	if len(d.recentQErr) >= d.Window && mlmath.Median(d.recentQErr) > retrainThreshold {
		d.retrainCandidate()
	}
}

// retrainCandidate clones the incumbent, fits the clone on the buffered
// observations, and hands it to the rollout. The incumbent is never
// touched: if the candidate is worse, the rollout rejects it and serving
// continues unchanged.
func (d *DriftAdapter) retrainCandidate() {
	trigger := d.MedianRecentQError()
	cand := d.Model.Clone(nil)
	cand.Train(d.bufQ, d.bufY, retrainEpochs)
	d.Retrainings++
	d.Metrics.Counter("cardest.retrainings").Inc()
	d.recentQErr = d.recentQErr[:0]
	d.StartShadow(cand, map[string]string{
		"trigger":     "drift",
		"median_qerr": strconv.FormatFloat(trigger, 'g', 6, 64),
	})
}

// StartShadow deploys cand into the rollout as a shadow candidate,
// publishing it to the registry when one is attached (meta annotates the
// manifest; the caller's map is not modified). The serving model is
// untouched until the candidate wins its window; a worse candidate is
// rejected without serving a single request. Returns the candidate's
// version. Exported so callers — and the worse-candidate regression test —
// can push externally trained candidates through the same rollout drift
// retraining uses.
func (d *DriftAdapter) StartShadow(cand *MLPEstimator, meta map[string]string) int {
	roll := d.Rollout()
	version := d.publish(cand, meta)
	roll.SetCandidate(modelsvc.Deployment{Version: version, Model: fracPredictor{est: cand}})
	return version
}

// MedianRecentQError exposes the monitored error level.
func (d *DriftAdapter) MedianRecentQError() float64 {
	if len(d.recentQErr) == 0 {
		return 1
	}
	return mlmath.Median(d.recentQErr)
}
