package dataset

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/gen"
)

// CirculantStrides returns the canonical stride set for the huge preset:
// d distinct offsets growing triangularly (1, 2, 4, 7, 11, …), so the
// graph is not a trivial ring yet every property below stays closed-form.
func CirculantStrides(d int) []int64 {
	s := make([]int64, d)
	for j := range s {
		s[j] = int64(j*(j+1))/2 + 1
	}
	return s
}

// StreamCirculantWC writes an RMSNAP v1 snapshot of a directed circulant
// graph straight to w in O(len(strides)) working memory: node u has arcs
// to (u+s) mod n for each stride s, every node has in-degree d =
// len(strides), and the single-topic probability model is the exact
// weighted cascade p = 1/d. Because the structure is closed-form, the
// out-CSR, in-CSR and probability sections are all generated on the fly
// and never materialized — this is how `graphgen -preset=huge` produces
// a 100M-edge snapshot on a machine that could not hold the graph.
//
// No advertiser roster is embedded; the harness re-draws ads on load,
// as with any roster-free snapshot. The in-adjacency is emitted in
// ascending-source order, matching what graph rebuilding from the
// out-CSR would produce.
func StreamCirculantWC(w io.Writer, name string, n int64, strides []int64) error {
	d := len(strides)
	if n < 2 || d < 1 {
		return fmt.Errorf("dataset: circulant needs n >= 2 and at least one stride (n=%d, d=%d)", n, d)
	}
	strides = append([]int64(nil), strides...)
	sort.Slice(strides, func(i, j int) bool { return strides[i] < strides[j] })
	for j, s := range strides {
		if s <= 0 || s >= n {
			return fmt.Errorf("dataset: circulant stride %d outside (0, n=%d)", s, n)
		}
		if j > 0 && s == strides[j-1] {
			return fmt.Errorf("dataset: duplicate circulant stride %d", s)
		}
	}
	m := n * int64(d)
	st, err := NewSnapshotStreamer(w, StreamHeader{
		Name:       name,
		Directed:   true,
		ProbModel:  gen.ProbWC,
		PaperNodes: int(n),
		PaperEdges: int(m),
		NumNodes:   n,
		NumEdges:   m,
		NumTopics:  1,
	})
	if err != nil {
		return err
	}

	const chunk = 1 << 16
	// Both offset arrays are i*d: out-degree and in-degree are constant.
	offsets := func(app func([]int64) error) error {
		buf := make([]int64, 0, chunk)
		for i := int64(0); i <= n; i++ {
			buf = append(buf, i*int64(d))
			if len(buf) == chunk {
				if err := app(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		return app(buf)
	}
	if err := offsets(st.AppendOutOff); err != nil {
		return err
	}
	// Out-targets must be ascending per node. Strides are ascending, so
	// u's sorted targets are the wrapped ones (u+s >= n, numerically
	// u+s-n < u) first — they keep stride order — then the unwrapped:
	// with W = #{s : s >= n-u}, stride index j maps to rank j-(d-W) when
	// wrapped and W+j otherwise. The same closed form gives edge IDs
	// (u*d + rank) for the in-adjacency pass without any lookback.
	wrapCount := func(u int64) int {
		W := sort.Search(d, func(j int) bool { return strides[j] >= n-u })
		return d - W
	}
	buf32 := make([]int32, 0, chunk+d)
	for u := int64(0); u < n; u++ {
		W := wrapCount(u)
		for j := d - W; j < d; j++ {
			buf32 = append(buf32, int32(u+strides[j]-n))
		}
		for j := 0; j < d-W; j++ {
			buf32 = append(buf32, int32(u+strides[j]))
		}
		if len(buf32) >= chunk {
			if err := st.AppendOutTargets(buf32); err != nil {
				return err
			}
			buf32 = buf32[:0]
		}
	}
	if err := st.AppendOutTargets(buf32); err != nil {
		return err
	}
	if err := offsets(st.AppendInOff); err != nil {
		return err
	}
	// In-arcs of v come from (v-s) mod n; both passes emit them sorted by
	// source — recomputing the tiny per-node sort twice is what keeps the
	// whole generator allocation-flat.
	inArcs := func(v int64, srcs []int32, eids []int32) ([]int32, []int32) {
		srcs, eids = srcs[:0], eids[:0]
		for j, s := range strides {
			src := v - s
			if src < 0 {
				src += n
			}
			W := wrapCount(src)
			rank := W + j
			if s >= n-src { // arc (src -> v) wraps
				rank = j - (d - W)
			}
			// Insertion sort by source; d is small.
			k := len(srcs)
			srcs = append(srcs, 0)
			eids = append(eids, 0)
			for k > 0 && srcs[k-1] > int32(src) {
				srcs[k], eids[k] = srcs[k-1], eids[k-1]
				k--
			}
			srcs[k], eids[k] = int32(src), int32(src*int64(d)+int64(rank))
		}
		return srcs, eids
	}
	srcs, eids := make([]int32, 0, d), make([]int32, 0, d)
	inPass := func(pick func(srcs, eids []int32) []int32, app func([]int32) error) error {
		buf32 = buf32[:0]
		for v := int64(0); v < n; v++ {
			srcs, eids = inArcs(v, srcs, eids)
			buf32 = append(buf32, pick(srcs, eids)...)
			if len(buf32) >= chunk {
				if err := app(buf32); err != nil {
					return err
				}
				buf32 = buf32[:0]
			}
		}
		return app(buf32)
	}
	if err := inPass(func(s, _ []int32) []int32 { return s }, st.AppendInSources); err != nil {
		return err
	}
	if err := inPass(func(_, e []int32) []int32 { return e }, st.AppendInEdgeIDs); err != nil {
		return err
	}

	p := float32(1 / float64(d)) // exact WC: in-degree is d everywhere
	probs := make([]float32, chunk)
	for i := range probs {
		probs[i] = p
	}
	for left := m; left > 0; {
		take := int64(chunk)
		if take > left {
			take = left
		}
		if err := st.AppendTopicProbs(probs[:take]); err != nil {
			return err
		}
		left -= take
	}
	return st.Finish()
}
