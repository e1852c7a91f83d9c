// Package vr is the variance-reduction layer of the estimation
// procedure: estimator transforms that converge the paper's confidence
// interval (§IV, the accuracy specification of Eq. 3) with fewer
// sampled cycles, complementing the per-sample acceleration of the
// lane-parallel compiled simulator.
//
// The paper's two-phase scheme (§III–IV) draws nearly independent
// power samples X_1, X_2, ... and feeds them to a sequential stopping
// criterion; the sample size the budget rule demands is proportional to
// the sample variance. Every transform here reduces that variance while
// leaving the mean — the quantity being estimated — untouched:
//
//   - Antithetic pairing (ModeAntithetic): replication 2i+1 draws the
//     mirrored input stream of replication 2i (every underlying uniform
//     u replaced by 1-u, see vectors.Antithetic), so every 64-lane
//     word of the lane-parallel simulator forms 32 negatively
//     correlated pairs for free. The criterion consumes pair means (X_{2i}+X_{2i+1})/2,
//     whose variance is sigma^2 (1+rho)/2 per pair with rho <= 0 —
//     never more than two independent samples' worth, and strictly
//     less whenever the mirrored streams anticorrelate.
//
//   - Control variates (ModeControlVariate): each general-delay sample
//     X (event-driven, glitches included) is observed together with
//     its same-cycle zero-delay toggle power C — already computed by
//     the lane engine's word-level diff — and the criterion consumes
//     Y = X - beta (C - mu_C). The coefficient beta is
//     regression-estimated from the phase-1 sequence (the accepted
//     randomness-test sequence of Fig. 2, collected as (X, C) pairs),
//     and mu_C comes from a long word-parallel zero-delay pre-run, which costs
//     hidden-cycle rates. Since E[C] = mu_C up to the pre-run's small
//     estimation error and beta is fixed before phase 2 on independent
//     seeds, E[Y] = E[X]: the transform is unbiased, and
//     Var(Y) = Var(X)(1 - rho^2) at the optimal beta.
//
// The seam is deliberately small: a Spec (user intent, carried in
// core.Options.Variance) is resolved once per run into a Plan — the
// mode plus the frozen (beta, mu_C) — before the sampled phase starts.
// The Plan is pure data, travels verbatim over the cluster protocol,
// and is applied identically by the in-process estimator and remote
// workers, which is what keeps N-worker runs bit-identical to the
// single-process estimate in every mode. Antithetic pair-averaging
// happens in core.Merger, after rounds are assembled in canonical
// replication order, so pairs may span shard or worker boundaries
// freely.
//
// Stratification over Markov-sampled initial states (the third
// transform sketched by the same seam) is not implemented; a Plan mode
// plus a per-replication source hook is all it would need.
package vr
