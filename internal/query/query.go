// Package query defines the basic top-k search query model (Section
// II-B) and the ranked-merge helpers shared by the in-memory query
// engine and the disk tier.
//
// A basic search query carries a search criteria (one or more keys on a
// single attribute), a result limit k, and uses the ranking scores
// pre-computed at arrival. Multi-key queries combine keys with OR (any
// key matches) or AND (all keys must match), the two forms major
// microblog services support (Section IV-D).
package query

import (
	"cmp"
	"slices"

	"kflushing/internal/store"
	"kflushing/internal/trace"
	"kflushing/internal/types"
)

// Op is the combination operator of a multi-key query.
type Op int

const (
	// OpSingle queries exactly one key.
	OpSingle Op = iota
	// OpOr returns microblogs matching any of the keys.
	OpOr
	// OpAnd returns microblogs matching all of the keys.
	OpAnd
)

// String returns the operator's conventional spelling.
func (o Op) String() string {
	switch o {
	case OpSingle:
		return "single"
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	default:
		return "op?"
	}
}

// Item is one ranked candidate: a microblog and its ranking score.
type Item struct {
	MB    *types.Microblog
	Score float64
	// rec is the memory-resident record the candidate was gathered
	// from (see MemoryItem); nil for disk items and in every Result the
	// engine returns.
	rec *store.Record
}

// MemoryItem returns the candidate for a memory-resident record. The
// record rides along through the ranked merges so the engine can report
// which memory records an answer used without looking them up by ID.
func MemoryItem(rec *store.Record) Item {
	return Item{MB: rec.MB, Score: rec.Score, rec: rec}
}

// Record returns the memory-resident record the item was gathered
// from, or nil when it came from disk or was detached.
func (it Item) Record() *store.Record { return it.rec }

// Detached returns the item without its record: the form handed to
// callers, which must never hold a recyclable record wrapper.
func (it Item) Detached() Item { return Item{MB: it.MB, Score: it.Score} }

// Compare orders items by ranking, descending by (score, ID) — the
// ranking order of query answers: negative when a ranks before b, zero
// only for the same (score, ID).
func Compare(a, b Item) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(b.MB.ID, a.MB.ID)
}

// SortRanked sorts items into ranking order (best first).
func SortRanked(items []Item) { slices.SortFunc(items, Compare) }

// MergeTopK merges candidate lists into the global top-k, deduplicating
// by microblog ID: when an ID occurs more than once, its first
// occurrence (in list order, then position) wins. Input lists need not
// be sorted. The result is a fresh slice.
func MergeTopK(lists [][]Item, k int) []Item {
	return AppendMergeTopK(nil, lists, k)
}

// AppendMergeTopK is MergeTopK appending its result to dst, so a caller
// with a reusable buffer merges without allocating. The lists must not
// alias dst's spare capacity.
func AppendMergeTopK(dst []Item, lists [][]Item, k int) []Item {
	base := len(dst)
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	dst = slices.Grow(dst, n)
	for _, l := range lists {
		dst = append(dst, l...)
	}
	all := dst[base:]
	// A stable sort by ID keeps each ID's occurrences in input order,
	// so compaction keeps the first; the ranking sort follows. IDs sort
	// descending because they are assigned in arrival order: lists
	// ranked by the paper's temporal ranking arrive almost sorted.
	slices.SortStableFunc(all, func(a, b Item) int { return cmp.Compare(b.MB.ID, a.MB.ID) })
	all = slices.CompactFunc(all, func(a, b Item) bool { return a.MB.ID == b.MB.ID })
	slices.SortFunc(all, Compare)
	if len(all) > k {
		clear(all[k:])
		all = all[:k]
	}
	return dst[:base+len(all)]
}

// IntersectTopK returns the top-k items present in every list (matched
// by microblog ID), best first. Lists need not be sorted, but an ID
// must carry the same score in every list it appears in and appear at
// most once per list — both hold for postings of one record. The
// result is a fresh slice.
func IntersectTopK(lists [][]Item, k int) []Item {
	return AppendIntersectTopK(nil, lists, k)
}

// AppendIntersectTopK is IntersectTopK appending its result to dst.
// Lists already in ranking order — what the in-memory index hands out
// — are walked in place with one cursor per list, exiting as soon as k
// items matched; an unsorted list is first copied and sorted.
func AppendIntersectTopK(dst []Item, lists [][]Item, k int) []Item {
	if len(lists) == 0 || k <= 0 {
		return dst
	}
	ranked, copied := lists, false
	for i, l := range lists {
		if slices.IsSortedFunc(l, Compare) {
			continue
		}
		if !copied {
			ranked, copied = slices.Clone(lists), true
		}
		ranked[i] = slices.Clone(l)
		SortRanked(ranked[i])
	}
	// Drive the walk from the shortest list: the intersection is a
	// subset of it.
	drive := 0
	for i, l := range ranked {
		if len(l) < len(ranked[drive]) {
			drive = i
		}
	}
	var buf [8]int // one cursor per list, on the stack for up to 8 keys
	cursor := buf[:]
	if len(ranked) > len(buf) {
		cursor = make([]int, len(ranked))
	}
	found := 0
next:
	for _, x := range ranked[drive] {
		for i, l := range ranked {
			if i == drive {
				continue
			}
			c := cursor[i]
			for c < len(l) && Compare(l[c], x) < 0 {
				c++
			}
			cursor[i] = c
			if c == len(l) {
				break next // list i has nothing ranked at or below x
			}
			if Compare(l[c], x) != 0 {
				continue next
			}
		}
		dst = append(dst, x)
		if found++; found == k {
			break
		}
	}
	return dst
}

// Request is a fully-specified basic search query over keys of type K.
type Request[K comparable] struct {
	// Keys are the search criteria values; OpSingle uses Keys[0].
	Keys []K
	// Op combines multiple keys.
	Op Op
	// K is the result limit; 0 selects the engine default.
	K int
	// Trace, when non-nil, collects the end-to-end execution record of
	// the query (memory probe, per-segment disk activity, stage
	// timings). Nil — the default — disables tracing at zero cost.
	Trace *trace.Trace
}

// Result is a query answer with its provenance.
type Result struct {
	// Items are the ranked answers, best first; may hold fewer than k
	// when fewer matches exist anywhere in the system.
	Items []Item
	// MemoryHit reports whether the full answer came from main-memory
	// contents without consulting the disk tier.
	MemoryHit bool
	// DiskChecked reports whether the disk tier was consulted.
	DiskChecked bool
}
