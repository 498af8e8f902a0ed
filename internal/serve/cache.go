package serve

import (
	"container/list"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incentive"
)

// resultCache is a bounded LRU over marshaled response bodies. The
// engine is deterministic for a fixed cache key (a solve is a pure
// function of its instance, options and Seed, at any sampling Workers,
// and an evaluation of its allocation, runs and seed at any Workers),
// so replaying the stored bytes is bit-identical to re-solving —
// the cache trades memory for latency without changing any answer.
// Entries are immutable once stored; get returns the shared slice and
// callers must not mutate it.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List
	m   map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache returns a cache bounded at max entries; max < 0
// disables caching (every get misses, every put is dropped).
func newResultCache(max int) *resultCache {
	if max < 0 {
		return &resultCache{max: -1}
	}
	return &resultCache{max: max, ll: list.New(), m: map[string]*list.Element{}}
}

func (c *resultCache) enabled() bool { return c.max > 0 }

func (c *resultCache) get(key string) ([]byte, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (c *resultCache) put(key string, body []byte) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	if !c.enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// solveCacheKey composes the full solve identity from the materialized
// problem and options. Dataset coordinates (name, scale, seed, h, kind,
// α) already determine the instance on one server, but the key is built
// from the instance itself — every ad's normalized topic distribution
// via core.GammaKey (the same normalization that keys the engine's
// probability memo and universe cache, so -0.0/NaN oddities collapse
// identically), exact CPE and floored-budget bits — plus every
// output-affecting option and the problem graph's generation (always
// keyed, even at generation 0, so a /v1/mutate between two otherwise
// identical requests forces a recompute: no cached response ever
// crosses a generation boundary). Two requests agree on the key iff
// the engine would produce bit-identical responses for them.
func solveCacheKey(kind string, scale gen.Scale, dsSeed uint64, dataset string,
	h int, ikind incentive.Kind, alpha float64, p *core.Problem,
	mode string, opt core.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%d|%d|%v|%x|%s|%x|%x|%d|%d|%d|%t|gen:%d",
		kind, dataset, scale, dsSeed, h, ikind, math.Float64bits(alpha),
		mode, math.Float64bits(opt.Epsilon), math.Float64bits(opt.Ell),
		opt.Window, opt.Seed, opt.MaxThetaPerAd, opt.ShareSamples,
		p.Graph.Generation())
	for _, ad := range p.Ads {
		fmt.Fprintf(&b, "|g:%s;c:%x;b:%x", core.GammaKey(ad.Gamma),
			math.Float64bits(ad.CPE), math.Float64bits(ad.Budget))
	}
	return b.String()
}

// evalCacheKey extends the instance identity with the allocation being
// scored, the Monte-Carlo runs and seed (not workers, which changes
// speed only), and the graph generation (same rationale as
// solveCacheKey: a mutate invalidates evaluate answers).
func evalCacheKey(scale gen.Scale, dsSeed uint64, dataset string, h int,
	ikind incentive.Kind, alpha float64, p *core.Problem,
	seeds [][]int32, runs int, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "eval|%s|%s|%d|%d|%v|%x|%d|%d|gen:%d",
		dataset, scale, dsSeed, h, ikind, math.Float64bits(alpha),
		runs, seed, p.Graph.Generation())
	for _, ad := range p.Ads {
		fmt.Fprintf(&b, "|g:%s;c:%x;b:%x", core.GammaKey(ad.Gamma),
			math.Float64bits(ad.CPE), math.Float64bits(ad.Budget))
	}
	for _, s := range seeds {
		b.WriteString("|s:")
		for _, u := range s {
			fmt.Fprintf(&b, "%d,", u)
		}
	}
	return b.String()
}
