// Package optim implements the weight-update phase of BERT training: the
// LAMB optimizer the paper identifies as the second-highest runtime
// contributor (Takeaway 1), and the dynamic loss scaling that mixed
// precision trains under. The fused-Adam study of Fig. 12a is analytical
// (internal/fusion and opgraph's OptAdam); no engine Adam runs.
//
// Optimizer kernels always account bytes at FP32 element size: mixed
// precision keeps FP32 master weights and optimizer state, which is why
// the paper finds LAMB's runtime unchanged — and its relative share
// increased — under MP training (Takeaway 2).
package optim

// fp32Size is the optimizer element size: updates run in full precision
// even under mixed-precision training.
const fp32Size = 4
