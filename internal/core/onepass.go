package core

// One-pass (Han & Cui et al., arXiv:2107.04997) sample sizing.
//
// TI-CARM/TI-CSRM interleave greedy selection with growth events: every
// time an advertiser's committed seeds reach its latent size estimate s̃,
// the estimate is revised from the remaining budget (Eq. 10), KPT is
// refreshed, the RR sample is extended to L(s̃, ε), coverage is
// re-attributed and the candidate heap rebuilt. On large instances the
// repeated extension/re-coverage/rebuild cycles dominate runtime.
//
// The one-pass modes front-load that work: immediately after the initial
// L(1, ε) samples are drawn, each advertiser runs exactly one growth
// event against its full budget, which fixes s̃ and the final θ before
// the first seed is committed. The subsequent greedy pass then runs with
// zero growth events — candidates are evaluated once against a frozen
// sample, which is the Han–Cui "one-pass candidate evaluation with early
// termination" scheme expressed on this engine's substrate (same arena,
// coverage views, scratch pool and shard machinery; runs remain
// bit-identical for a fixed seed).
//
// The tradeoff is the growth-time guarantee: TI revises s̃ as payments
// accrue, so its final θ always covers the committed seed count; the
// one-pass estimate can undershoot when early seeds are much cheaper
// than the upfront bound assumed (seeds past s̃ keep the fixed-θ
// estimates). Revenue in practice tracks TI closely — the frontier
// experiment (rmbench -experiment=frontier) measures exactly this gap.

// presizeOnePass runs the single upfront growth event for every
// advertiser, in ascending ad order on the solving goroutine, so runs
// stay deterministic regardless of how the initialization goroutines
// were scheduled. It reuses grow() wholesale: with no seeds committed,
// remaining budget is the full budget and the Eq. 10 estimate becomes
// s̃ = 1 + ⌊B_i / (max-cost + cpe·n·f_max)⌋ computed from the initial
// sample's top coverage fraction f_max. Sample-sharing groups compose:
// each member grows the shared universe to its own requirement and
// later members see (and sync past) the already-grown prefix.
func (e *solver) presizeOnePass() error {
	for _, ad := range e.ads {
		if err := e.grow(ad); err != nil {
			return err
		}
	}
	return nil
}
