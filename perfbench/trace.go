package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kflushing"
	"kflushing/internal/alloc"
	"kflushing/internal/attr"
	"kflushing/internal/core"
	"kflushing/internal/disk"
	"kflushing/internal/engine"
	"kflushing/internal/metrics"
	"kflushing/internal/policy"
	"kflushing/internal/query"
	"kflushing/internal/store"
	"kflushing/internal/types"
	"kflushing/internal/wal"
)

// Span names. Client spans wrap the calls the client makes into the
// engine; the policy and sink spans come from the wrappers the traced
// engine is built with.
const (
	spIngest   = iota // engine.ingest: one Ingest or IngestBatch call
	spSearch          // engine.search: one Search call
	spOnIngest        // policy.on_ingest, inside engine.ingest
	spOnAccess        // policy.on_access, inside engine.search
	spFlush           // policy.flush: the gate-held Flush of one cycle
	spSink            // disk.sink: the sink call inside policy.flush
	numSpans
)

var spanNames = [numSpans]string{"engine.ingest", "engine.search", "policy.on_ingest",
	"policy.on_access", "policy.flush", "disk.sink"}

// span is one timed call. Spans of one client operation or one flush
// cycle share op; parent indexes the enclosing span in the same list
// (-1 for none). n is the records the call carried; target and freed
// are a flush's.
type span struct {
	name          uint8
	op            uint32
	parent        int32
	start, end    int64 // nanoseconds since the tracer's epoch
	n             int32
	target, freed int64
}

// tracer keeps spans in memory while the window runs and writes them
// out when the run ends. Client spans are recorded by the single client
// goroutine; flush-side spans by whichever goroutine runs the flush
// cycle, under mu.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	client []span
	cur    int32 // open client span, -1 for none
	ops    uint32

	mu       sync.Mutex
	flush    []span
	curFlush int32
	cycles   uint32

	start windowStart
}

// windowStart holds the counters read when the window opens.
type windowStart struct {
	slab  alloc.SliceStats
	recyc alloc.RecyclerStats
	io    procIO
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1, curFlush: -1} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// openClient starts a client span and makes it the parent of the
// policy spans the call produces.
func (t *tracer) openClient(name uint8, n int) int32 {
	if !t.on.Load() {
		return -1
	}
	t.ops++
	t.client = append(t.client, span{name: name, op: t.ops, parent: -1, n: int32(n), start: t.now()})
	t.cur = int32(len(t.client) - 1)
	return t.cur
}

func (t *tracer) closeClient(i int32) {
	if i >= 0 {
		t.client[i].end = t.now()
	}
	t.cur = -1
}

// child records a finished policy span under the open client span.
func (t *tracer) child(name uint8, start int64, n int) {
	if t.cur < 0 || !t.on.Load() {
		return
	}
	t.client = append(t.client, span{name: name, op: t.client[t.cur].op, parent: t.cur,
		n: int32(n), start: start, end: t.now()})
}

// tracedPolicy times the policy calls the engine makes, and swaps the
// sink it is attached to for a timing one.
type tracedPolicy struct {
	inner policy.Policy[string]
	t     *tracer
}

func (p *tracedPolicy) Name() string         { return p.inner.Name() }
func (p *tracedPolicy) OverheadBytes() int64 { return p.inner.OverheadBytes() }

func (p *tracedPolicy) Attach(r *policy.Resources[string]) {
	wrapped := *r
	wrapped.Sink = &tracedSink{inner: r.Sink, t: p.t}
	p.inner.Attach(&wrapped)
}

func (p *tracedPolicy) OnIngest(recs []*store.Record, keys [][]string) {
	start := p.t.now()
	p.inner.OnIngest(recs, keys)
	p.t.child(spOnIngest, start, len(recs))
}

func (p *tracedPolicy) OnAccess(recs []*store.Record) {
	start := p.t.now()
	p.inner.OnAccess(recs)
	p.t.child(spOnAccess, start, len(recs))
}

func (p *tracedPolicy) Flush(target int64) (int64, error) {
	t := p.t
	on := t.on.Load()
	if on {
		t.mu.Lock()
		t.cycles++
		t.flush = append(t.flush, span{name: spFlush, op: 1<<31 | t.cycles, parent: -1,
			target: target, start: t.now()})
		t.curFlush = int32(len(t.flush) - 1)
		t.mu.Unlock()
	}
	freed, err := p.inner.Flush(target)
	if on {
		t.mu.Lock()
		s := &t.flush[t.curFlush]
		s.end, s.freed = t.now(), freed
		t.curFlush = -1
		t.mu.Unlock()
	}
	return freed, err
}

// tracedSink times the flush sink. It forwards FlushDead when the inner
// sink has it, so dead records still reach the recycler.
type tracedSink struct {
	inner policy.Sink
	t     *tracer
}

func (s *tracedSink) Flush(recs []disk.FlushRecord) error {
	return s.timed(len(recs), func() error { return s.inner.Flush(recs) })
}

func (s *tracedSink) FlushDead(recs []disk.FlushRecord, dead []*store.Record) error {
	ds, ok := s.inner.(policy.DeadSink)
	if !ok {
		return s.Flush(recs)
	}
	return s.timed(len(recs), func() error { return ds.FlushDead(recs, dead) })
}

func (s *tracedSink) timed(n int, call func() error) error {
	t := s.t
	start := t.now()
	err := call()
	if t.on.Load() {
		end := t.now()
		t.mu.Lock()
		if t.curFlush >= 0 {
			t.flush = append(t.flush, span{name: spSink, op: t.flush[t.curFlush].op,
				parent: t.curFlush, n: int32(n), start: start, end: end})
		}
		t.mu.Unlock()
	}
	return err
}

// tracedSystem is the traced run's client surface: the engine built
// with the wrapped policy, with a span around every call.
type tracedSystem struct {
	eng *engine.Engine[string]
	t   *tracer
}

// openTraced builds the engine with the configuration kflushing.Open
// derives from opt at its defaults, except that the policy is wrapped.
func openTraced(dir string, opt kflushing.Options, t *tracer) (*tracedSystem, error) {
	ap, err := alloc.ParsePolicy("")
	if err != nil {
		return nil, err
	}
	walDir := ""
	if opt.Durable {
		walDir = dir + "/wal"
	}
	eng, err := engine.New(engine.Config[string]{
		K:             20,
		MemoryBudget:  opt.MemoryBudget,
		FlushFraction: 0.10,
		KeysOf:        attr.KeywordKeys,
		KeyHash:       attr.HashString,
		KeyLen:        attr.KeywordLen,
		EncodeKey:     attr.KeywordEncode,
		Ranker:        kflushing.Temporal,
		DiskDir:       dir,
		WALDir:        walDir,
		WALOptions:    wal.Options{},
		Policy:        &tracedPolicy{inner: core.New(core.WithMaxPhase[string](3)), t: t},
		TrackOverK:    true,
		AllocPolicy:   ap,
	})
	if err != nil {
		return nil, err
	}
	return &tracedSystem{eng: eng, t: t}, nil
}

func (s *tracedSystem) Ingest(mb *types.Microblog) (types.ID, error) {
	i := s.t.openClient(spIngest, 1)
	id, err := s.eng.Ingest(mb)
	s.t.closeClient(i)
	return id, err
}

func (s *tracedSystem) IngestBatch(mbs []*types.Microblog) ([]types.ID, error) {
	i := s.t.openClient(spIngest, len(mbs))
	ids, err := s.eng.IngestBatch(mbs)
	s.t.closeClient(i)
	return ids, err
}

func (s *tracedSystem) Search(keywords []string, op query.Op, k int) (query.Result, error) {
	i := s.t.openClient(spSearch, 0)
	res, err := s.eng.Search(query.Request[string]{Keys: keywords, Op: op, K: k})
	s.t.closeClient(i)
	return res, err
}

func (s *tracedSystem) Engine() *engine.Engine[string] { return s.eng }
func (s *tracedSystem) Close() error                   { return s.eng.Close() }

// begin opens the window: spans are recorded from here.
func (t *tracer) begin(eng *engine.Engine[string]) {
	t.start.slab, t.start.recyc = eng.AllocStats()
	t.start.io, _ = readProcIO()
	t.on.Store(true)
}

// layerSample is one traced repetition's per-layer metrics by name.
type layerSample map[string]float64

// end closes the window and derives the per-layer metrics from the
// spans, the engine's own counters, runtime.MemStats and /proc/self/io.
func (t *tracer) end(eng *engine.Engine[string], before, after metrics.Snapshot,
	diskBefore disk.Stats, st engine.Stats, ms0, ms1 *runtime.MemStats,
	io1 procIO, out repOut) *layerSample {
	t.on.Store(false)
	t.mu.Lock()
	flush := append([]span(nil), t.flush...)
	t.mu.Unlock()

	m := layerSample{}
	var dur, self, count, recs [numSpans]float64
	var target, freed float64
	for _, list := range [][]span{t.client, flush} {
		childSum := make([]int64, len(list))
		for _, s := range list {
			if s.parent >= 0 && s.end > 0 {
				childSum[s.parent] += s.end - s.start
			}
		}
		for i, s := range list {
			if s.end == 0 {
				continue // still open when the window closed
			}
			d := float64(s.end - s.start)
			dur[s.name] += d
			self[s.name] += d - float64(childSum[i])
			count[s.name]++
			recs[s.name] += float64(s.n)
			if s.name == spFlush {
				target += float64(s.target)
				freed += float64(s.freed)
			}
		}
	}
	mean := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	queries := float64(out.queries)
	stageNanos := 0.0
	for _, i := range []int{metrics.QStageIndex, metrics.QStageHeap, metrics.QStageDisk} {
		stageNanos += float64(after.QueryStages[i].Hist.Sum - before.QueryStages[i].Hist.Sum)
	}
	m["engine.ingest_self_us"] = mean(self[spIngest], count[spIngest]) / 1e3
	m["engine.search_self_us"] = (mean(self[spSearch], count[spSearch]) - mean(stageNanos, queries)) / 1e3
	m["policy.on_ingest_ns_per_rec"] = mean(dur[spOnIngest], recs[spOnIngest])
	m["policy.on_access_calls"] = count[spOnAccess]
	m["policy.flush_cycles"] = count[spFlush]
	m["policy.flush_ms"] = mean(dur[spFlush], count[spFlush]) / 1e6
	m["policy.flush_self_ms"] = mean(self[spFlush], count[spFlush]) / 1e6
	m["policy.freed_over_target"] = mean(freed, target)
	m["disk.sink_calls"] = count[spSink]
	m["disk.sink_records"] = recs[spSink]
	m["disk.sink_us"] = mean(dur[spSink], count[spSink]) / 1e3
	m["trace.spans"] = float64(len(t.client) + len(flush))

	// The engine's registry.
	delta := func(a, b metrics.HistogramSnapshot) (n, sum float64) {
		return float64(b.Count - a.Count), float64(b.Sum - a.Sum)
	}
	enq := float64(after.PipelineEnqueued - before.PipelineEnqueued)
	fb := float64(after.PipelineFallbacks - before.PipelineFallbacks)
	m["engine.pipeline_enqueued"] = enq
	m["engine.pipeline_fallback_ratio"] = mean(fb, enq+fb)
	for i, name := range metrics.StageNames {
		n, sum := delta(before.Stages[i].Hist, after.Stages[i].Hist)
		m["engine.flush_"+name+"_ms"] = mean(sum, n) / 1e6
	}
	var phaseFreed [metrics.FlushPhases]float64
	var allFreed float64
	for i := range after.Phases {
		n, sum := delta(before.Phases[i].Hist, after.Phases[i].Hist)
		m[fmt.Sprintf("core.phase%d_ms", i+1)] = mean(sum, n) / 1e6
		phaseFreed[i] = float64(after.Phases[i].FreedBytes - before.Phases[i].FreedBytes)
		allFreed += phaseFreed[i]
	}
	for i := range phaseFreed {
		m[fmt.Sprintf("core.phase%d_freed_share", i+1)] = mean(phaseFreed[i], allFreed)
	}
	for _, qs := range []struct {
		name  string
		stage int
	}{{"index", metrics.QStageIndex}, {"heap", metrics.QStageHeap}, {"disk", metrics.QStageDisk}} {
		a, b := before.QueryStages[qs.stage].Hist, after.QueryStages[qs.stage].Hist
		n, sum := delta(a, b)
		m["query."+qs.name+"_us"] = mean(sum, n) / 1e3
		m["query."+qs.name+"_p99_us"] = histQuantile(a, b, 0.99) / 1e3
	}

	// Index census at the window's end.
	c := st.Census
	m["index.entries"] = float64(c.Entries)
	m["index.postings"] = float64(c.Postings)
	m["index.kfilled_entries"] = float64(c.KFilled)
	m["index.overk_entries"] = float64(eng.Index().OverKLen())
	m["index.beyond_topk_share"] = mean(float64(c.BeyondTopK), float64(c.Postings))

	// Disk tier.
	d0, d1 := diskBefore, st.Disk
	flushes := float64(after.Flushes - before.Flushes)
	searches := float64(d1.Searches - d0.Searches)
	misses := float64(after.Misses - before.Misses)
	m["disk.build_ms"] = mean(float64(d1.BuildNanos-d0.BuildNanos), flushes) / 1e6
	m["disk.install_ms"] = mean(float64(d1.InstallNanos-d0.InstallNanos), flushes) / 1e6
	m["disk.compactions"] = float64(d1.Compactions - d0.Compactions)
	m["disk.segments"] = float64(d1.Segments)
	m["disk.searches_per_miss"] = mean(searches, misses)
	m["disk.coalesced"] = float64(after.DiskSearchesCoalesced - before.DiskSearchesCoalesced)
	m["disk.bloom_skip_ratio"] = mean(float64(d1.BloomSkips-d0.BloomSkips), float64(d1.BloomProbes-d0.BloomProbes))
	m["disk.dir_probes_per_search"] = mean(float64(d1.DirProbes-d0.DirProbes), searches)
	m["disk.preads_per_search"] = mean(float64(d1.RecordReads-d0.RecordReads), searches)
	cacheHits := float64(d1.CacheHits - d0.CacheHits)
	m["disk.cache_hit_ratio"] = mean(cacheHits, cacheHits+float64(d1.CacheMisses-d0.CacheMisses))
	m["disk.cache_evictions"] = float64(d1.CacheEvictions - d0.CacheEvictions)

	// Allocator, runtime and OS.
	slab, recyc := eng.AllocStats()
	m["alloc.slab_reuse_ratio"] = mean(float64(slab.Reuses-t.start.slab.Reuses), float64(slab.Gets-t.start.slab.Gets))
	m["alloc.recycler_reuse_ratio"] = mean(float64(recyc.Reuses-t.start.recyc.Reuses), float64(out.records))
	ops := float64(out.records) + queries
	m["runtime.allocs_per_op"] = mean(float64(ms1.Mallocs-ms0.Mallocs), ops)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["runtime.gc_cpu_fraction"] = ms1.GCCPUFraction
	m["os.write_syscalls"] = float64(io1.syscw - t.start.io.syscw)
	m["os.write_mib"] = float64(io1.wchar-t.start.io.wchar) / (1 << 20)
	m["os.read_syscalls_per_query"] = mean(float64(io1.syscr-t.start.io.syscr), queries)
	return &m
}

// histQuantile estimates the q-quantile of the observations made
// between two snapshots of a power-of-two histogram, as the upper edge
// of the bucket holding it, in nanoseconds.
func histQuantile(a, b metrics.HistogramSnapshot, q float64) float64 {
	total := b.Count - a.Count
	if total <= 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	var seen int64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			return float64(metrics.BucketUpperNanos(i))
		}
	}
	return float64(metrics.BucketUpperNanos(len(b.Counts) - 1))
}

// walProbeRecords bounds the WAL probe's input.
const walProbeRecords = 1 << 16

// dump writes the window's spans, one per line: op, name, parent,
// start and end in nanoseconds, records.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tparent\tstart_ns\tend_ns\trecords")
	t.mu.Lock()
	for _, list := range [][]span{t.client, t.flush} {
		for _, s := range list {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", s.op, spanNames[s.name], s.parent, s.start, s.end, s.n)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walProbe times the write-ahead log alone: it opens a log with the
// shipped settings in a scratch directory and appends the workload's
// own batches (its first walProbeRecords records), returning the mean
// AppendBatch time in microseconds and the log bytes per record.
func walProbe(dir string, ins []input, batch int, vocab []string) (us, bytesPerRec float64, err error) {
	ins = ins[:min(len(ins), walProbeRecords)]
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{PooledBuffers: true})
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	var calls int
	frames := make([]disk.FlushRecord, 0, batch)
	for i := 0; i+batch <= len(ins); i += batch {
		frames = frames[:0]
		for j := i; j < i+batch; j++ {
			mb := ins[j].microblog(vocab)
			mb.ID = types.ID(j + 1)
			frames = append(frames, disk.FlushRecord{MB: mb, Score: float64(mb.Timestamp)})
		}
		t := time.Now()
		if err := l.AppendBatch(frames); err != nil {
			l.Close()
			return 0, 0, err
		}
		total += time.Since(t)
		calls++
	}
	if err := l.Close(); err != nil {
		return 0, 0, err
	}
	if calls == 0 {
		return 0, 0, nil
	}
	return float64(total.Nanoseconds()) / float64(calls) / 1e3,
		float64(dirSize(dir)) / float64(calls*batch), nil
}
