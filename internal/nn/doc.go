// Package nn implements the neural-network substrate used by every learned
// component in the repository: dense layers, activations, losses, SGD and
// Adam optimizers, and a multi-layer perceptron with full backpropagation.
//
// The design follows the needs of ML4DB systems surveyed in the paper: models
// are small (hidden widths of tens, not thousands), trained on CPUs, and must
// expose gradients with respect to their *inputs* so that upstream plan
// encoders (TreeLSTM, TreeCNN, ...) can be trained end-to-end through a task
// head.
//
// # Conventions
//
// Dense weights are stored row-major as out×in matrices (mlmath.Mat); a
// forward pass is one MulVec per layer. Losses take (pred, target, grad)
// and write the gradient with respect to pred into grad while returning the
// scalar loss; an empty batch yields loss 0 and no gradient. Mismatched
// prediction/target lengths panic — the shape-panic policy of
// internal/mlmath applies here too.
//
// # Determinism and parallel training
//
// All randomness (initialization, shuffling) flows from injected
// *mlmath.RNG values, so a fixed seed rebuilds a bit-identical model.
//
// MLP.Fit optionally trains mini-batches in parallel: FitOptions.Pool with
// more than one worker splits each batch into contiguous shards
// (mlmath.ShardRange), runs forward/backward per shard against shard views
// — aliases of the shared weights with private gradient buffers — and then
// reduces the shard gradients into the main model in fixed shard order
// (shard 0, then 1, ...). The contract is:
//
//   - same seed, same worker count → bit-identical model, on any machine;
//   - different worker counts → equally valid but not bit-identical models,
//     because float gradient summation is reassociated across shards.
//
// A nil Pool (the default) keeps training strictly serial and therefore
// identical to the pre-parallelism behavior of this package. Inference
// (Forward, Predict1) involves no reduction and is safe to fan out through
// any pool with bit-identical results per input; ForwardInto is too, given
// one buffer per goroutine.
//
// Inference keeps no backward state: Forward allocates one buffer for every
// layer's output and ForwardInto none, and both compute ForwardTape's output
// bit for bit (Dense.apply is the layers' one copy of the arithmetic).
package nn
