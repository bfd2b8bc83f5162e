package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"kflushing/internal/attr"
	"kflushing/internal/clock"
	"kflushing/internal/core"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/ranking"
	"kflushing/internal/store"
	"kflushing/internal/types"
)

func newKeywordEngine(t *testing.T, budget int64, pol policy.Policy[string], trackTopK bool) *Engine[string] {
	t.Helper()
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  budget,
		FlushFraction: 0.2,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		Clock:         clock.NewLogical(1, 1),
		DiskDir:       t.TempDir(),
		Policy:        pol,
		TrackTopK:     trackTopK,
		TrackOverK:    true,
		SyncFlush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func ingest(t *testing.T, e *Engine[string], ts int64, kws ...string) types.ID {
	t.Helper()
	id, err := e.Ingest(&types.Microblog{
		Timestamp: types.Timestamp(ts),
		Keywords:  kws,
		Text:      "text",
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return id
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config[string]{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config[string]{
		KeysOf:    attr.KeywordKeys,
		KeyHash:   attr.HashString,
		KeyLen:    attr.KeywordLen,
		EncodeKey: attr.KeywordEncode,
	}); err == nil {
		t.Fatal("config without policy accepted")
	}
}

func TestIngestAssignsIDsAndTimestamps(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	id1 := ingest(t, eng, 0, "a") // zero timestamp: engine assigns
	id2 := ingest(t, eng, 0, "a")
	if id2 != id1+1 {
		t.Fatalf("ids not sequential: %d then %d", id1, id2)
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("%d items", len(res.Items))
	}
	if res.Items[0].MB.Timestamp <= 0 {
		t.Fatal("timestamp not assigned")
	}
}

func TestSearchEmptyKeysRejected(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	if _, err := eng.Search(query.Request[string]{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestSingleKeyOpCoercion(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	ingest(t, eng, 1, "a")
	// An AND query with one key behaves as single.
	res, err := eng.Search(query.Request[string]{Keys: []string{"a"}, Op: query.OpAnd, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || !res.MemoryHit {
		t.Fatalf("single-key AND: items=%d hit=%v", len(res.Items), res.MemoryHit)
	}
}

func TestMissFallsBackToDisk(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	for i := 1; i <= 10; i++ {
		ingest(t, eng, int64(i), "hot")
	}
	ingest(t, eng, 11, "cold")
	if _, err := eng.FlushNow(); err != nil {
		t.Fatal(err)
	}
	// Evict everything via repeated forced flushes.
	for i := 0; i < 20; i++ {
		if _, err := eng.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"hot"}, Op: query.OpSingle, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryHit {
		// Acceptable if phase 3 kept the entry; then we cannot test
		// the disk path this way.
		t.Skip("entry survived forced flushes")
	}
	if !res.DiskChecked {
		t.Fatal("miss did not check disk")
	}
	if len(res.Items) != 5 {
		t.Fatalf("disk fallback returned %d items, want 5", len(res.Items))
	}
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i-1].Score < res.Items[i].Score {
			t.Fatal("disk results not ranked")
		}
	}
}

func TestAnswerAccuracyAcrossFlushes(t *testing.T) {
	// The union of memory and disk must always contain the true top-k,
	// regardless of flushing (the paper: "the answers are always
	// accurate" because flushed data moves to disk).
	eng := newKeywordEngine(t, 64<<10, core.New[string](), false)
	const n = 2000
	for i := 1; i <= n; i++ {
		kws := []string{fmt.Sprintf("k%d", i%37)}
		if i%3 == 0 {
			kws = append(kws, fmt.Sprintf("k%d", (i+11)%37))
		}
		ingest(t, eng, int64(i), kws...)
	}
	// For each key the true top-5 timestamps are computable: key kI
	// matches records where i%37==I or (i%3==0 && (i+11)%37==I).
	for key := 0; key < 37; key++ {
		var want []int64
		for i := n; i >= 1 && len(want) < 5; i-- {
			if i%37 == key || (i%3 == 0 && (i+11)%37 == key) {
				want = append(want, int64(i))
			}
		}
		res, err := eng.Search(query.Request[string]{Keys: []string{fmt.Sprintf("k%d", key)}, Op: query.OpSingle, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) != len(want) {
			t.Fatalf("key k%d: %d items, want %d", key, len(res.Items), len(want))
		}
		for i, it := range res.Items {
			if int64(it.MB.Timestamp) != want[i] {
				t.Fatalf("key k%d rank %d: ts=%d want %d", key, i, it.MB.Timestamp, want[i])
			}
		}
	}
}

func TestFlushTriggersOnBudget(t *testing.T) {
	eng := newKeywordEngine(t, 32<<10, core.New[string](), false)
	for i := 1; i <= 500; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%11))
	}
	if eng.Metrics().Flushes.Load() == 0 {
		t.Fatal("budget exceeded but no flush ran")
	}
	if used := eng.Mem().Used(); used > 2*32<<10 {
		t.Fatalf("memory %d far above budget", used)
	}
}

func TestPopularityRanking(t *testing.T) {
	eng, err := New(Config[string]{
		K:            3,
		MemoryBudget: 1 << 30,
		KeysOf:       attr.KeywordKeys,
		KeyHash:      attr.HashString,
		KeyLen:       attr.KeywordLen,
		EncodeKey:    attr.KeywordEncode,
		Ranker:       ranking.Popularity{},
		DiskDir:      t.TempDir(),
		Policy:       core.New[string](),
		TrackOverK:   true,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	followers := []uint32{10, 500, 50, 900, 1}
	for i, f := range followers {
		if _, err := eng.Ingest(&types.Microblog{
			Timestamp: types.Timestamp(i + 1),
			Followers: f,
			Keywords:  []string{"a"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Search(query.Request[string]{Keys: []string{"a"}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{900, 500, 50}
	for i, it := range res.Items {
		if it.MB.Followers != want[i] {
			t.Fatalf("rank %d followers=%d, want %d", i, it.MB.Followers, want[i])
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	ingest(t, eng, 1, "a", "b")
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a"}, K: 1}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Policy != "kflushing" || st.K != 5 {
		t.Fatalf("stats header: %+v", st)
	}
	if st.StoreRecords != 1 || st.Census.Entries != 2 {
		t.Fatalf("stats census: %+v", st.Census)
	}
	if st.Metrics.Queries != 1 || st.Metrics.Hits != 1 {
		t.Fatalf("stats metrics: %+v", st.Metrics)
	}
	if st.MemoryUsed <= 0 || st.DataBytes <= 0 || st.IndexBytes <= 0 {
		t.Fatalf("stats gauges: %+v", st)
	}
}

func TestClosedEngineRejectsOperations(t *testing.T) {
	eng := newKeywordEngine(t, 1<<30, core.New[string](), false)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(&types.Microblog{Keywords: []string{"a"}}); err != ErrClosed {
		t.Fatalf("Ingest after close: %v", err)
	}
	if _, err := eng.Search(query.Request[string]{Keys: []string{"a"}}); err != ErrClosed {
		t.Fatalf("Search after close: %v", err)
	}
	if _, err := eng.FlushNow(); err != ErrClosed {
		t.Fatalf("FlushNow after close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentIngestSearchFlush(t *testing.T) {
	// Race-oriented smoke: ingest, query, and background flushing all
	// run concurrently; run under -race in CI.
	eng, err := New(Config[string]{
		K:             5,
		MemoryBudget:  128 << 10,
		FlushFraction: 0.2,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		DiskDir:       t.TempDir(),
		Policy:        core.NewMK[string](),
		TrackTopK:     true,
		TrackOverK:    true,
		SyncFlush:     false, // background flushing goroutine
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= 5000; i++ {
			kws := []string{fmt.Sprintf("k%d", i%23)}
			if i%2 == 0 {
				kws = append(kws, fmt.Sprintf("k%d", i%7))
			}
			if _, err := eng.Ingest(&types.Microblog{Keywords: kws, Text: "text"}); err != nil && err != ErrNoKeys {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			op := query.Op(i % 3)
			keys := []string{fmt.Sprintf("k%d", i%23)}
			if op != query.OpSingle {
				keys = append(keys, fmt.Sprintf("k%d", i%7))
			}
			if _, err := eng.Search(query.Request[string]{Keys: keys, Op: op, K: 5}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := eng.Err(); err != nil {
		t.Fatalf("background flush error: %v", err)
	}
}

func TestLRUEngineIntegration(t *testing.T) {
	eng := newKeywordEngine(t, 48<<10, policy.NewLRU[string](), false)
	for i := 1; i <= 800; i++ {
		ingest(t, eng, int64(i), fmt.Sprintf("k%d", i%13))
		if i%5 == 0 {
			if _, err := eng.Search(query.Request[string]{Keys: []string{"k1"}, K: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// k1 is constantly queried so LRU should keep it hot.
	res, err := eng.Search(query.Request[string]{Keys: []string{"k1"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoryHit {
		t.Error("constantly queried key missed memory under LRU")
	}
}

// accessRecorder wraps a policy and records the IDs of every OnAccess
// call. It forwards the access capability only when forward is set —
// the wrapper rule DESIGN.md §7.10 states.
type accessRecorder struct {
	policy.Policy[string]
	forward bool
	calls   [][]*store.Record
}

func (a *accessRecorder) ObservesAccess() bool {
	return a.forward && policy.ObservesAccess(a.Policy)
}

func (a *accessRecorder) OnAccess(recs []*store.Record) {
	a.calls = append(a.calls, slices.Clone(recs))
	a.Policy.OnAccess(recs)
}

// TestLRUOnAccessGetsAnswerRecords checks that access feedback reaches
// LRU with exactly the memory records an answer used — for a memory
// hit, an OR hit, and a miss whose answer mixes memory and disk items —
// each as the resident record itself; and that a policy without the
// capability is never called.
func TestLRUOnAccessGetsAnswerRecords(t *testing.T) {
	rec := &accessRecorder{Policy: policy.NewLRU[string](), forward: true}
	eng := newKeywordEngine(t, 64<<20, rec, false)
	for i := 1; i <= 12; i++ {
		ingest(t, eng, int64(i), "x")
		if i%3 == 0 {
			ingest(t, eng, int64(i), "x", "y")
		}
	}
	// Evict the three least recently used records to disk.
	for i := 0; i < 3; i++ {
		if _, err := eng.Policy().Flush(1); err != nil {
			t.Fatal(err)
		}
	}
	resident := map[types.ID]*store.Record{}
	for _, key := range []string{"x", "y"} {
		for _, r := range eng.Index().Entry(key).AppendAll(nil) {
			resident[r.MB.ID] = r
		}
	}
	for _, tc := range []struct {
		name string
		req  query.Request[string]
		miss bool
	}{
		{"hit", query.Request[string]{Keys: []string{"x"}, K: 3}, false},
		{"or-hit", query.Request[string]{Keys: []string{"x", "y"}, Op: query.OpOr, K: 3}, false},
		{"miss", query.Request[string]{Keys: []string{"x"}, K: 16}, true},
	} {
		rec.calls = nil
		res, err := eng.Search(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if res.DiskChecked != tc.miss {
			t.Fatalf("%s: disk checked = %v, want %v", tc.name, res.DiskChecked, tc.miss)
		}
		var want []types.ID
		onDisk := 0
		for _, it := range res.Items {
			if it.Record() != nil {
				t.Fatalf("%s: answer item %d leaks its record", tc.name, it.MB.ID)
			}
			if _, ok := resident[it.MB.ID]; ok {
				want = append(want, it.MB.ID)
			} else {
				onDisk++
			}
		}
		if tc.miss && (onDisk == 0 || len(want) == 0) {
			t.Fatalf("%s: answer has %d memory and %d disk items, want both", tc.name, len(want), onDisk)
		}
		if len(rec.calls) != 1 {
			t.Fatalf("%s: %d OnAccess calls, want 1", tc.name, len(rec.calls))
		}
		var got []types.ID
		for _, r := range rec.calls[0] {
			if resident[r.MB.ID] != r {
				t.Fatalf("%s: OnAccess got record %d that is not the resident one", tc.name, r.MB.ID)
			}
			got = append(got, r.MB.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: OnAccess got %v, want the answer's memory records %v", tc.name, got, want)
		}
	}

	silent := &accessRecorder{Policy: core.New[string]()}
	eng = newKeywordEngine(t, 64<<20, silent, false)
	for i := 1; i <= 8; i++ {
		ingest(t, eng, int64(i), "x")
	}
	if _, err := eng.Search(query.Request[string]{Keys: []string{"x"}, K: 5}); err != nil {
		t.Fatal(err)
	}
	if len(silent.calls) != 0 {
		t.Fatalf("policy without the access capability got %d OnAccess calls", len(silent.calls))
	}
}
