package core

import (
	"cmp"
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kflushing/internal/index"
)

// Selector picks the victim entries for Phases 2 and 3. classify maps an
// entry to its eviction timestamp (arrival time for Phase 2, query time
// for Phase 3) and reports whether it is a candidate at all. The
// returned victims are ordered least-recent first and their estimated
// freeable bytes sum to at least target when enough candidates exist.
//
// Victim order is total: timestamps tie often (one multi-key record
// stamps several entries with the same arrival), so ties break on the
// entry's creation ordinal (see compareVictims). Given the same
// candidates, a selector
// returns the same victims in the same order however the scan visited
// them.
type Selector[K comparable] interface {
	Select(ix *index.Index[K], target int64, classify func(*index.Entry[K]) (ts int64, ok bool)) []*index.Entry[K]
}

type victim[K comparable] struct {
	e  *index.Entry[K]
	ts int64
	fb int64
}

// compareVictims orders victims least recent first: by timestamp, then
// the most recently created entry first. Ties are common — one
// multi-key record stamps several entries with the same arrival, and
// every never-queried entry shares Phase 3's zero query time — and
// among them a long-lived entry is most likely a frequent key (it has
// kept drawing postings since it was created), the keys correlated
// queries ask for, while a freshly created one is most likely rare.
func compareVictims[K comparable](a, b victim[K]) int {
	if c := cmp.Compare(a.ts, b.ts); c != 0 {
		return c
	}
	return cmp.Compare(b.e.Ord(), a.e.Ord())
}

// victimHeap is a max-heap in victim order: the most recent buffered
// victim sits at the top, ready to be displaced by older candidates.
type victimHeap[K comparable] []victim[K]

func (h victimHeap[K]) Len() int            { return len(h) }
func (h victimHeap[K]) Less(i, j int) bool  { return compareVictims(h[i], h[j]) > 0 }
func (h victimHeap[K]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *victimHeap[K]) Push(x interface{}) { *h = append(*h, x.(victim[K])) }
func (h *victimHeap[K]) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// scanVictims collects every classify-accepted entry with its eviction
// timestamp and freeable-byte estimate. The scan — the O(n) part of
// victim selection that walks every entry and takes its lock to size it
// — is fanned out over the index shards with a bounded worker pool of
// min(GOMAXPROCS, shards) goroutines (or `workers`, when positive);
// shards are handed out through an atomic cursor so uneven shards cannot
// stall the pool. The candidates come back in no fixed order — shard
// maps iterate randomly and workers interleave — so the selectors must
// not depend on it: both order victims totally (compareVictims).
func scanVictims[K comparable](ix *index.Index[K], workers int, classify func(*index.Entry[K]) (int64, bool)) []victim[K] {
	shards := ix.ShardCount()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	collect := func(shard int, out []victim[K]) []victim[K] {
		ix.RangeShard(shard, func(e *index.Entry[K]) bool {
			if ts, ok := classify(e); ok {
				out = append(out, victim[K]{e: e, ts: ts, fb: e.FreeableBytes(ix.KeyLen(e.Key()))})
			}
			return true
		})
		return out
	}
	if workers <= 1 {
		var all []victim[K]
		for i := 0; i < shards; i++ {
			all = collect(i, all)
		}
		return all
	}
	perWorker := make([][]victim[K], workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []victim[K]
			for {
				i := int(cursor.Add(1)) - 1
				if i >= shards {
					break
				}
				out = collect(i, out)
			}
			perWorker[w] = out
		}(w)
	}
	wg.Wait()
	var n int
	for _, part := range perWorker {
		n += len(part)
	}
	all := make([]victim[K], 0, n)
	for _, part := range perWorker {
		all = append(all, part...)
	}
	return all
}

// HeapSelector is the paper's single-pass O(n) victim selection: one
// traversal over the candidate entries maintaining an on-the-go buffer
// (a max-heap on recency) whose total memory consumption stays at or
// just above the target, always holding the least recently used
// candidates seen so far.
//
// The candidate *scan* runs shard-parallel (see scanVictims); the heap
// pass itself is kept sequential — it is O(n) with a heap bounded by the
// target, and its shed-the-most-recent loop is inherently order
// sensitive, so parallelizing it would buy little and cost correctness.
type HeapSelector[K comparable] struct {
	// Workers caps the scan worker pool; 0 selects
	// min(GOMAXPROCS, shards), 1 forces a sequential scan.
	Workers int
}

// Select implements Selector.
func (s HeapSelector[K]) Select(ix *index.Index[K], target int64, classify func(*index.Entry[K]) (int64, bool)) []*index.Entry[K] {
	var h victimHeap[K]
	var total int64
	for _, v := range scanVictims(ix, s.Workers, classify) {
		switch {
		case total < target:
			// Still filling the buffer up to the target.
			heap.Push(&h, v)
			total += v.fb
		case len(h) > 0 && compareVictims(v, h[0]) < 0:
			// Older than the most recent buffered victim: admit it,
			// then shed the most recent victims while the buffer still
			// meets the target without them.
			heap.Push(&h, v)
			total += v.fb
			for len(h) > 0 && total-h[0].fb >= target {
				total -= h[0].fb
				heap.Pop(&h)
			}
		}
	}
	// The fill phase admits candidates unconditionally, so a recent one
	// can stay buffered although older victims alone meet the target.
	// Shedding it here makes the buffer the least-recent prefix that
	// meets the target — the same set whatever the scan order.
	for len(h) > 0 && total-h[0].fb >= target {
		total -= h[0].fb
		heap.Pop(&h)
	}
	out := []victim[K](h)
	slices.SortFunc(out, compareVictims[K])
	entries := make([]*index.Entry[K], len(out))
	for i, v := range out {
		entries[i] = v.e
	}
	return entries
}

// SortSelector is the straightforward O(n log n) alternative the paper
// rejects: sort every candidate by recency, then take the least recent
// prefix whose freeable bytes reach the target. Kept as the ablation
// baseline for the selection benchmarks. It shares the shard-parallel
// candidate scan so the ablation isolates the selection algorithm.
type SortSelector[K comparable] struct {
	// Workers caps the scan worker pool; 0 selects
	// min(GOMAXPROCS, shards), 1 forces a sequential scan.
	Workers int
}

// Select implements Selector.
func (s SortSelector[K]) Select(ix *index.Index[K], target int64, classify func(*index.Entry[K]) (int64, bool)) []*index.Entry[K] {
	all := scanVictims(ix, s.Workers, classify)
	slices.SortFunc(all, compareVictims[K])
	var total int64
	var out []*index.Entry[K]
	for _, v := range all {
		if total >= target {
			break
		}
		out = append(out, v.e)
		total += v.fb
	}
	return out
}
