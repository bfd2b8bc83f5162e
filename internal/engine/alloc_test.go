package engine

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// allocEngine builds a sync-flush engine under the given allocator
// policy with a budget small enough that warm-up flushing stocks the
// record recycler and posting pool.
func allocEngine(t *testing.T, ap alloc.Policy) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  256 << 10,
		FlushFraction: 0.25,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		Policy:        core.New[string](),
		TrackOverK:    true,
		SyncFlush:     true,
		AllocPolicy:   ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return eng
}

// TestIngestBatchAllocsPooled pins the steady-state allocation ceiling
// of IngestBatch under the pooled policy. The measured loop still
// allocates what it must — the caller-visible ID slice, one Microblog
// struct per record — but record wrappers come from the recycler,
// posting-array growth from the slab pool, and batch scratch from the
// per-engine arena, so the engine's own contribution stays bounded. The
// ceiling (3 allocations per record, measured ~1.5 with flushes
// landing inside the window) is what future PRs must not regress.
func TestIngestBatchAllocsPooled(t *testing.T) {
	eng := allocEngine(t, alloc.PolicyPooled)
	const batch = 16
	// A fixed hot vocabulary: entries reach their steady capacity class
	// during warm-up and stay there. Keyword slices are subslices of one
	// backing array so the measured loop doesn't allocate them.
	kws := make([]string, 64)
	for i := range kws {
		kws[i] = fmt.Sprintf("hot%02d", i)
	}
	ts := 0
	run := func() {
		mbs := make([]*types.Microblog, batch)
		for i := range mbs {
			ts++
			w := ts % len(kws)
			mbs[i] = &types.Microblog{
				Timestamp: types.Timestamp(ts),
				Keywords:  kws[w : w+1],
				Text:      "steady-state ingest body",
			}
		}
		if _, err := eng.IngestBatch(mbs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past several budget-triggered flush cycles so the
	// recycler and slab pool hold stock, then flush the live set down
	// so the measured window rides between cycles.
	for i := 0; i < 400; i++ {
		run()
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, run)
	perRecord := avg / batch
	t.Logf("IngestBatch batch=%d: %.1f allocs/op, %.2f allocs/record", batch, avg, perRecord)
	if perRecord > 3 {
		t.Errorf("IngestBatch allocates %.2f objects/record under pooled, ceiling 3", perRecord)
	}
	slices, recs := eng.AllocStats()
	if slices.Reuses == 0 || recs.Reuses == 0 {
		t.Fatalf("pools never reused (slices %+v, records %+v): test is not measuring the pooled path", slices, recs)
	}
}

// searchEngine builds a pooled kFlushing engine at the paper's k=20
// with a budget no test here fills, so every probe stays in memory.
func searchEngine(t *testing.T, slowQueryNanos int64, encode func(string) string) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:              20,
		MemoryBudget:   64 << 20,
		KeysOf:         attr.KeywordKeys,
		KeyHash:        attr.HashString,
		KeyLen:         attr.KeywordLen,
		EncodeKey:      encode,
		Clock:          clock.NewLogical(1, 1),
		DiskDir:        t.TempDir(),
		Policy:         core.New[string](),
		TrackOverK:     true,
		SyncFlush:      true,
		BlackboxEvents: -1,
		SlowQueryNanos: slowQueryNanos,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := eng.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	// "a" and "b" share 40 records (AND hits), "c" holds 30 of its own.
	for i := 0; i < 70; i++ {
		kws := []string{"a", "b"}
		if i >= 40 {
			kws = []string{"c"}
		}
		if _, err := eng.Ingest(&types.Microblog{Timestamp: types.Timestamp(i + 1), Keywords: kws, Text: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// hitRequests are one single, one OR and one AND query that all hit
// memory on searchEngine's data at k=20.
var hitRequests = map[string]query.Request[string]{
	"single": {Keys: []string{"a"}, K: 20},
	"or":     {Keys: []string{"a", "c"}, Op: query.OpOr, K: 20},
	"and":    {Keys: []string{"a", "b"}, Op: query.OpAnd, K: 20},
}

// TestSearchHitAllocs pins the allocation ceiling of a kFlushing memory
// hit with tracing and slow-query capture off: candidates, merge and
// intersection live in pooled per-query scratch, and no access list is
// built for a policy that ignores it, so what remains is the
// caller-owned Result.Items (measured: 1 allocation).
func TestSearchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch at random under the race detector")
	}
	eng := searchEngine(t, 0, attr.KeywordEncode)
	for name, req := range hitRequests {
		res, err := eng.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.MemoryHit || len(res.Items) != 20 {
			t.Fatalf("%s: hit=%v with %d items, want a 20-item memory hit", name, res.MemoryHit, len(res.Items))
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, err := eng.Search(req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s hit: %.1f allocs/op", name, avg)
		if avg > 2 {
			t.Errorf("%s hit allocates %.1f objects/op, ceiling 2", name, avg)
		}
	}
}

// TestSlowCaptureEncodesKeysLazily checks that speculative slow-query
// capture encodes the query's keys only for a trace it keeps: with the
// threshold far above any query, fast hits never call EncodeKey; with a
// 1 ns threshold the kept trace carries every key, on the trace and on
// each memory probe.
func TestSlowCaptureEncodesKeysLazily(t *testing.T) {
	var encoded atomic.Int64
	encode := func(s string) string {
		encoded.Add(1)
		return attr.KeywordEncode(s)
	}
	fast := searchEngine(t, int64(time.Hour), encode)
	encoded.Store(0)
	for _, req := range hitRequests {
		if _, err := fast.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	if n := encoded.Load(); n != 0 {
		t.Fatalf("fast queries under slow capture encoded %d keys, want 0", n)
	}
	if n := fast.SlowLog().Len(); n != 0 {
		t.Fatalf("slow log captured %d fast queries", n)
	}

	slow := searchEngine(t, 1, encode)
	req := hitRequests["or"]
	if _, err := slow.Search(req); err != nil {
		t.Fatal(err)
	}
	kept := slow.SlowLog().Snapshot()
	if len(kept) != 1 {
		t.Fatalf("slow log holds %d queries, want 1", len(kept))
	}
	tr := kept[0].Trace
	if !slices.Equal(tr.Keys, req.Keys) || len(tr.Entries) != len(req.Keys) {
		t.Fatalf("kept trace keys %v with %d probes, want %v", tr.Keys, len(tr.Entries), req.Keys)
	}
	for i, ep := range tr.Entries {
		if ep.Key != req.Keys[i] {
			t.Fatalf("probe %d labelled %q, want %q", i, ep.Key, req.Keys[i])
		}
	}
}
