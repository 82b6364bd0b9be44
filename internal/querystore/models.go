package querystore

import (
	"time"

	"ml4db/internal/modelsvc"
)

// ModelAction is one step in a learned component's deployment lifecycle.
type ModelAction int

// The lifecycle steps recorded in sys_models.
const (
	// ModelInstall: the engine installed an estimator version into the
	// planner (version 0 means the classical-only planner).
	ModelInstall ModelAction = iota
	// ModelCandidate: a candidate version entered a rollout's shadow window.
	ModelCandidate
	// ModelPromoted: a candidate won its window and became the incumbent.
	ModelPromoted
	// ModelRejected: a candidate lost its window (or was replaced/dropped).
	ModelRejected
	// ModelDemoted: a promotion was reverted.
	ModelDemoted
)

// String renders the action for exports and logs.
func (a ModelAction) String() string {
	switch a {
	case ModelInstall:
		return "install"
	case ModelCandidate:
		return "candidate"
	case ModelPromoted:
		return "promoted"
	case ModelRejected:
		return "rejected"
	case ModelDemoted:
		return "demoted"
	default:
		return "unknown"
	}
}

// ModelEvent is one recorded lifecycle step. Version is the deployment the
// event is about; Incumbent is the serving version after the event.
type ModelEvent struct {
	Seq       int64
	At        time.Time
	Action    ModelAction
	Version   int
	Incumbent int
}

// RecordModelInstall records that the engine installed estimator version v
// into its planner.
func (s *Store) RecordModelInstall(version int) {
	if s == nil {
		return
	}
	s.recordModel(ModelInstall, version, version)
}

// RecordRollout folds a modelsvc rollout event into the model timeline; its
// method value is a modelsvc.RolloutOptions.Events sink (a nil store's
// records nothing).
func (s *Store) RecordRollout(ev modelsvc.RolloutEvent) {
	if s == nil {
		return
	}
	var action ModelAction
	switch ev.Kind {
	case modelsvc.RolloutCandidate:
		action = ModelCandidate
	case modelsvc.RolloutPromoted:
		action = ModelPromoted
	case modelsvc.RolloutRejected:
		action = ModelRejected
	case modelsvc.RolloutDemoted:
		action = ModelDemoted
	default:
		return
	}
	s.recordModel(action, ev.Version, ev.Incumbent)
}

func (s *Store) recordModel(action ModelAction, version, incumbent int) {
	s.models.Append(ModelEvent{At: s.clock.Now(), Action: action, Version: version, Incumbent: incumbent})
}

// ModelEvents returns the retained model events in emission order.
func (s *Store) ModelEvents() []ModelEvent {
	if s == nil {
		return nil
	}
	return s.models.Snapshot()
}
