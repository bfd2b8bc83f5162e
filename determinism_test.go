package kflushing_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kflushing"
)

// replayRun is what one replay of the determinism stream observed: the
// flush-victim journal, every query's answer IDs and the end state.
type replayRun struct {
	journal []kflushing.FlushEvent
	answers [][]kflushing.ID
	stats   kflushing.Stats
}

// replaySeeded feeds one seeded stream of multi-keyword batches, flushes
// and queries into a fresh kFlushing system. Timestamps tie within a
// record's keys and across batches' entries, which is exactly where an
// order-sensitive victim selection diverges; queries keep the Phase 3
// last-queried timestamps moving.
func replaySeeded(t *testing.T, seed int64) replayRun {
	t.Helper()
	sys, err := kflushing.Open(t.TempDir(), kflushing.Options{
		Policy:        kflushing.PolicyKFlushing,
		K:             4,
		MemoryBudget:  40 << 10,
		FlushFraction: 0.15,
		SyncFlush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(seed))
	const vocab = 300
	kw := func() string { return fmt.Sprintf("w%d", rng.Intn(vocab)) }
	var run replayRun
	ts := 0
	for b := 0; b < 400; b++ {
		batch := make([]*kflushing.Microblog, rng.Intn(8)+1)
		ts++ // the whole batch shares one timestamp
		for i := range batch {
			kws := []string{kw()}
			for len(kws) < rng.Intn(3)+1 {
				if w := kw(); !slices.Contains(kws, w) {
					kws = append(kws, w)
				}
			}
			batch[i] = &kflushing.Microblog{Timestamp: kflushing.Timestamp(ts), Keywords: kws, Text: "t"}
		}
		if _, err := sys.IngestBatch(batch); err != nil {
			t.Fatalf("batch %d: ingest: %v", b, err)
		}
		for q := 0; q < 3; q++ {
			op := kflushing.Op(rng.Intn(3))
			keys := []string{kw()}
			if op != kflushing.OpSingle {
				keys = append(keys, kw())
			}
			res, err := sys.Search(keys, op, 4)
			if err != nil {
				t.Fatalf("batch %d: search: %v", b, err)
			}
			ids := make([]kflushing.ID, len(res.Items))
			for i, it := range res.Items {
				ids[i] = it.MB.ID
			}
			run.answers = append(run.answers, ids)
		}
	}
	run.journal = sys.FlushLog(0)
	run.stats = sys.Stats()
	return run
}

// TestReplayDeterministicAtGOMAXPROCS2 replays one seeded stream twice
// with two scan workers available and requires identical flush-victim
// journals, answers and end state. Phase 2/3 victim scans fan out over
// index shards and collect candidates in scheduling order; only a total
// victim order makes the outcome independent of it.
func TestReplayDeterministicAtGOMAXPROCS2(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a, b := replaySeeded(t, 77), replaySeeded(t, 77)
	phased := 0
	for _, ev := range a.journal {
		if len(ev.Phases) > 1 {
			phased++
		}
	}
	if phased == 0 {
		t.Fatal("no flush cycle reached Phase 2; the replay does not exercise victim selection")
	}
	if len(a.journal) != len(b.journal) {
		t.Fatalf("journal lengths diverged: %d vs %d", len(a.journal), len(b.journal))
	}
	for i := range a.journal {
		x, y := a.journal[i], b.journal[i]
		if x.Trigger != y.Trigger || x.Target != y.Target || x.Freed != y.Freed ||
			x.MemBefore != y.MemBefore || x.MemAfter != y.MemAfter || len(x.Phases) != len(y.Phases) {
			t.Fatalf("journal event %d diverged:\nfirst  %+v\nsecond %+v", i, x, y)
		}
		for p := range x.Phases {
			px, py := x.Phases[p], y.Phases[p]
			if px.Phase != py.Phase || px.Victims != py.Victims || px.Freed != py.Freed {
				t.Fatalf("journal event %d phase %d diverged:\nfirst  %+v\nsecond %+v", i, p, px, py)
			}
		}
	}
	for i := range a.answers {
		if !slices.Equal(a.answers[i], b.answers[i]) {
			t.Fatalf("query %d answered %v, then %v", i, a.answers[i], b.answers[i])
		}
	}
	if a.stats.MemoryUsed != b.stats.MemoryUsed || a.stats.StoreRecords != b.stats.StoreRecords ||
		a.stats.Disk.RecordsWritten != b.stats.Disk.RecordsWritten {
		t.Fatalf("end state diverged: %d bytes/%d records/%d written vs %d/%d/%d",
			a.stats.MemoryUsed, a.stats.StoreRecords, a.stats.Disk.RecordsWritten,
			b.stats.MemoryUsed, b.stats.StoreRecords, b.stats.Disk.RecordsWritten)
	}
}
