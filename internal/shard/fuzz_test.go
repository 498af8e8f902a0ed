package shard

import (
	"testing"

	"repro/internal/rrset"
	"repro/internal/xrand"
)

// FuzzMergedCoverage drives MergedView against the single-universe
// oracle on randomized shard counts, universe sizes and set contents:
// merged NumSetsContaining, every node's CovCount, and the full greedy
// (MaxCovCount, CoverBy) trajectory — interleaved with adversarial
// off-trajectory CoverBy calls, group growth followed by SyncTo, and
// eligibility-filtered MaxCovCount queries over random banned sets —
// must be indistinguishable from a single universe holding the same
// sets in global draw order. Both views attach at a random prefix of
// the pre-grown sample, so shards seeded from their index degrees and
// shards walked forward both occur.
func FuzzMergedCoverage(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(8), uint16(10))
	f.Add(uint64(2), uint8(3), uint8(16), uint16(50))
	f.Add(uint64(3), uint8(5), uint8(4), uint16(0))
	f.Add(uint64(4), uint8(8), uint8(32), uint16(200))
	f.Add(uint64(5), uint8(2), uint8(6), uint16(120))
	f.Fuzz(func(t *testing.T, seed uint64, shards, nodes uint8, numSets uint16) {
		s := int(shards)%8 + 1
		n := int32(nodes)%32 + 1
		total := int(numSets) % 256
		rng := xrand.New(seed)

		// Random global draw sequence, partitioned to shards by i mod S.
		grp := &Group{
			n:         n,
			universes: make([]*rrset.Universe, s),
			streams:   make([]*rrset.Stream, s),
		}
		for i := range grp.universes {
			grp.universes[i] = rrset.NewUniverse(n)
		}
		oracle := rrset.NewUniverse(n)
		seen := make(map[int32]bool, 8)
		addSets := func(count int) {
			for ; count > 0; count-- {
				// An RR set is a nonempty list of distinct nodes (capped by
				// the node count, or drawing distinct members could never
				// finish).
				size := int(rng.Int31n(5)) + 1
				if size > int(n) {
					size = int(n)
				}
				for k := range seen {
					delete(seen, k)
				}
				var set []int32
				for len(set) < size {
					v := rng.Int31n(n)
					if seen[v] {
						continue
					}
					seen[v] = true
					set = append(set, v)
				}
				grp.universes[oracle.Size()%s].Add(set)
				oracle.Add(set)
			}
		}
		addSets(total)

		for v := int32(0); v < n; v++ {
			if got, want := grp.NumSetsContaining(v), oracle.NumSetsContaining(v); got != want {
				t.Fatalf("NumSetsContaining(%d): merged %d, oracle %d", v, got, want)
			}
		}

		prefix := int(rng.Int31n(int32(total) + 8)) // may exceed the sample
		mv := NewViewPrefix(grp, prefix)
		ov := rrset.NewViewPrefix(oracle, prefix)
		banned := make([]bool, n)
		eligible := func(v int32) bool { return !banned[v] }
		for round := 0; round < 64; round++ {
			if mv.Size() != ov.Size() {
				t.Fatalf("round %d Size: merged %d, oracle %d", round, mv.Size(), ov.Size())
			}
			if mv.NumCovered() != ov.NumCovered() {
				t.Fatalf("round %d NumCovered: merged %d, oracle %d",
					round, mv.NumCovered(), ov.NumCovered())
			}
			for v := int32(0); v < n; v++ {
				if mv.CovCount(v) != ov.CovCount(v) {
					t.Fatalf("round %d CovCount(%d): merged %d, oracle %d",
						round, v, mv.CovCount(v), ov.CovCount(v))
				}
			}
			// Filtered maxima: a random banned set (every node on some
			// rounds), then nothing eligible at all.
			allBanned := round%5 == 4
			for v := range banned {
				banned[v] = allBanned || rng.Int31n(3) == 0
			}
			mn, mc := mv.MaxCovCount(eligible)
			on, oc := ov.MaxCovCount(eligible)
			if mn != on || mc != oc {
				t.Fatalf("round %d filtered MaxCovCount: merged (%d,%d), oracle (%d,%d)",
					round, mn, mc, on, oc)
			}
			if allBanned && (mn != -1 || mc != 0) {
				t.Fatalf("round %d all-banned MaxCovCount = (%d,%d), want (-1,0)", round, mn, mc)
			}

			switch {
			case round%8 == 7:
				// Growth, then a sync to a random limit (possibly beyond
				// the grown sample) over views that have covered sets.
				addSets(int(rng.Int31n(32)))
				limit := mv.Size() + int(rng.Int31n(40))
				if a, b := mv.SyncTo(limit), ov.SyncTo(limit); a != b {
					t.Fatalf("round %d SyncTo(%d): merged %d, oracle %d", round, limit, a, b)
				}
			case round%3 == 2:
				// Off-trajectory tombstoning must stay in lockstep too.
				v := rng.Int31n(n)
				if a, b := mv.CoverBy(v), ov.CoverBy(v); a != b {
					t.Fatalf("round %d CoverBy(%d): merged %d, oracle %d", round, v, a, b)
				}
			default:
				mn, mc := mv.MaxCovCount(nil)
				on, oc := ov.MaxCovCount(nil)
				if mn != on || mc != oc {
					t.Fatalf("round %d MaxCovCount: merged (%d,%d), oracle (%d,%d)",
						round, mn, mc, on, oc)
				}
				if mc == 0 {
					continue // all-zero counts: nothing left to cover until growth
				}
				if a, b := mv.CoverBy(mn), ov.CoverBy(on); a != b {
					t.Fatalf("round %d CoverBy(%d): merged %d, oracle %d", round, mn, a, b)
				}
			}
		}
	})
}
