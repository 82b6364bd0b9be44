// Package qo provides the shared machinery of the learned query optimizers
// of §3.2: an execution environment producing deterministic latency signals,
// and ValueSearch, a value-network-guided bottom-up plan search trained in
// phases — the replacement-paradigm agent whose three configurations are
// NEO (NewNEO), Balsa (NewBalsa) and RTOS (NewRTOS). BAO (qo/bao),
// AutoSteer (qo/autosteer), LEON (qo/leon) and LEMO (qo/lemo) steer or rank
// the expert's plans over the same environment; ParamTree (qo/paramtree)
// tunes the expert's cost model.
package qo
