package rrset

import (
	"testing"

	"repro/internal/xrand"
)

// bruteView is FuzzViewPrefix's recount oracle: it keeps only the
// synced prefix length and one covered flag per set, and derives every
// count by walking the stored sets.
type bruteView struct {
	u       *Universe
	covered []bool
}

func (b *bruteView) syncTo(limit int) int {
	limit = min(limit, b.u.Size())
	added := max(0, limit-len(b.covered))
	for len(b.covered) < limit {
		b.covered = append(b.covered, false)
	}
	return added
}

func (b *bruteView) coverBy(node int32) int {
	newly := 0
	for id := range b.covered {
		if b.covered[id] {
			continue
		}
		for _, x := range b.u.Set(int32(id)) {
			if x == node {
				b.covered[id] = true
				newly++
				break
			}
		}
	}
	return newly
}

func (b *bruteView) counts() (count []int32, covered int) {
	count = make([]int32, b.u.n)
	for id, c := range b.covered {
		if c {
			covered++
			continue
		}
		for _, x := range b.u.Set(int32(id)) {
			count[x]++
		}
	}
	return count, covered
}

// FuzzViewPrefix checks NewViewPrefix's two ways of attaching against
// each other and against a brute-force recount. A view attached at a
// random prefix of a pre-grown universe (seeded from the index degrees
// when the prefix is the longer part) must equal a view walked forward
// from empty to the same prefix and the recount, set for set, along a
// greedy (MaxCovCount, CoverBy) trajectory interleaved with off-
// trajectory covers, eligibility-filtered maxima over random banned
// sets, and growth followed by SyncTo to a random limit. Growth appends
// sets with bare Adds, so the index picks them up as extra segments.
func FuzzViewPrefix(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint16(10))
	f.Add(uint64(2), uint8(16), uint16(50))
	f.Add(uint64(3), uint8(4), uint16(0))
	f.Add(uint64(4), uint8(32), uint16(200))
	f.Add(uint64(5), uint8(6), uint16(120))
	f.Fuzz(func(t *testing.T, seed uint64, nodes uint8, numSets uint16) {
		n := int32(nodes)%32 + 1
		total := int(numSets) % 256
		rng := xrand.New(seed)
		u := NewUniverse(n)
		addSets := func(count int) {
			for ; count > 0; count-- {
				u.Add(randomSet(rng, n, 5))
			}
		}
		addSets(total)

		// The prefix falls in the first half (walked forward), the second
		// half (seeded from the degrees, minus the sets past it) or at or
		// beyond the end (seeded, nothing to subtract).
		var prefix int
		switch rng.Int31n(3) {
		case 0:
			prefix = int(rng.Int31n(int32(total/2) + 1))
		case 1:
			prefix = total - int(rng.Int31n(int32(total/2)+1))
		default:
			prefix = total + int(rng.Int31n(8))
		}
		seeded := NewViewPrefix(u, prefix)
		walked := NewViewPrefix(u, 0)
		walked.SyncTo(prefix)
		brute := &bruteView{u: u}
		brute.syncTo(prefix)
		banned := make([]bool, n)
		eligible := func(v int32) bool { return !banned[v] }
		for round := 0; round < 64; round++ {
			count, covered := brute.counts()
			for _, v := range []*View{seeded, walked} {
				if v.Size() != len(brute.covered) || v.NumCovered() != covered {
					t.Fatalf("round %d: Size/NumCovered (%d,%d), recount (%d,%d)",
						round, v.Size(), v.NumCovered(), len(brute.covered), covered)
				}
				for x := int32(0); x < n; x++ {
					if v.CovCount(x) != count[x] {
						t.Fatalf("round %d CovCount(%d) = %d, recount %d", round, x, v.CovCount(x), count[x])
					}
				}
			}
			// Filtered maxima: a random banned set (every node on some
			// rounds, which must answer (-1, 0)).
			allBanned := round%5 == 4
			for x := range banned {
				banned[x] = allBanned || rng.Int31n(3) == 0
			}
			wn, wc := linearMaxCovCount(n, func(x int32) int32 { return count[x] }, eligible)
			for _, v := range []*View{seeded, walked} {
				if gn, gc := v.MaxCovCount(eligible); gn != wn || gc != wc {
					t.Fatalf("round %d filtered MaxCovCount = (%d,%d), reference (%d,%d)", round, gn, gc, wn, wc)
				}
			}

			switch {
			case round%8 == 7:
				// Growth, then a sync to a random limit (possibly beyond
				// the grown sample) over views that have covered sets.
				addSets(int(rng.Int31n(32)))
				limit := seeded.Size() + int(rng.Int31n(40))
				want := brute.syncTo(limit)
				if a, b := seeded.SyncTo(limit), walked.SyncTo(limit); a != want || b != want {
					t.Fatalf("round %d SyncTo(%d) = %d/%d, want %d", round, limit, a, b, want)
				}
			case round%3 == 2:
				x := rng.Int31n(n)
				want := brute.coverBy(x)
				if a, b := seeded.CoverBy(x), walked.CoverBy(x); a != want || b != want {
					t.Fatalf("round %d CoverBy(%d) = %d/%d, want %d", round, x, a, b, want)
				}
			default:
				x, c := seeded.MaxCovCount(nil)
				if c == 0 {
					continue // all-zero counts: nothing left to cover until growth
				}
				want := brute.coverBy(x)
				if a, b := seeded.CoverBy(x), walked.CoverBy(x); a != want || b != want {
					t.Fatalf("round %d greedy CoverBy(%d) = %d/%d, want %d", round, x, a, b, want)
				}
			}
		}
	})
}
