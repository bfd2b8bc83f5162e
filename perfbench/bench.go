package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"kflushing"
	"kflushing/internal/engine"
	"kflushing/internal/metrics"
	"kflushing/internal/query"
	"kflushing/internal/types"
)

// target is the surface the client drives: *kflushing.System for the
// measured runs, tracedSystem for the traced one.
type target interface {
	Ingest(*types.Microblog) (types.ID, error)
	IngestBatch([]*types.Microblog) ([]types.ID, error)
	Search(keywords []string, op query.Op, k int) (query.Result, error)
	Engine() *engine.Engine[string]
	Close() error
}

// samples collects one repetition's per-call latencies in
// nanoseconds.
type samples struct {
	ingest, hit, miss []int64
}

// repOut is what one repetition measured.
type repOut struct {
	setup, wall                time.Duration
	records, queries           int64 // in the measured window
	hits, misses               int64 // window queries, or the read-back
	userBytes, wchar, dirBytes int64 // since Open, at the window's end
	liveHeap                   int64
	flushes, compactions       int64 // in the measured window
	attempted, failed          int64
	firstFailure               error
	lat                        samples
	layers                     *layerSample // traced repetitions only
}

// rep runs one repetition: set-up, the measured window, then the
// checks. tr is nil for an untraced repetition.
type rep struct {
	sp   spec
	seed int64
	dir  string
	win  time.Duration
	tr   *tracer

	st       *stream
	vocab    []string
	inputs   []input  // the measured window's records
	probes   []probe  // the measured window's queries
	readback []probe  // queries timed after the fill (ingest-storm)
	checks   []probe  // queries checked after the window (ingest-storm)
	ids      []uint32 // every ingested record's ID, in ingest order
	logged   []input  // set-up records, in ingest order (for the reference)
	sys      target
	out      repOut

	probesUsed int       // window queries issued, at most len(probes)
	keyBuf     [2]string // the keys of the query in flight
}

func (r *rep) fail(err error) {
	r.out.failed++
	if r.out.firstFailure == nil {
		r.out.firstFailure = err
	}
}

// run executes the repetition; a returned error means the run cannot
// report numbers (set-up failed, the counters disagree, flushing did
// not settle).
func (r *rep) run() (repOut, error) {
	if err := os.RemoveAll(r.dir); err != nil {
		return r.out, err
	}
	defer os.RemoveAll(r.dir)
	defer func() {
		if r.sys != nil { // an error path: stop the engine before its directory goes
			_ = r.sys.Close()
		}
	}()
	io0, err := readProcIO()
	if err != nil {
		return r.out, err
	}
	t0 := time.Now()
	if err := r.setup(); err != nil {
		return r.out, fmt.Errorf("set-up: %w", err)
	}
	r.out.setup = time.Since(t0)
	eng := r.sys.Engine()
	if len(r.readback) > 0 {
		if err := quiesce(eng); err != nil {
			return r.out, err
		}
		r.verify(r.reference(), r.readback, true)
	}

	before := eng.Metrics().Snap()
	diskBefore := eng.Stats().Disk
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if r.tr != nil {
		r.tr.begin(eng)
	}
	hits0, misses0 := r.out.hits, r.out.misses
	r.measure()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ioEnd, err := readProcIO()
	if err != nil {
		return r.out, err
	}
	after := eng.Metrics().Snap()
	st := eng.Stats()
	r.out.wchar = ioEnd.wchar - io0.wchar
	r.out.dirBytes = dirSize(r.dir)
	r.out.flushes = after.Flushes - before.Flushes
	r.out.compactions = st.Disk.Compactions - diskBefore.Compactions
	if r.tr != nil {
		r.out.layers = r.tr.end(eng, before, after, diskBefore, st, &ms0, &ms1, ioEnd, r.out)
	}
	if err := r.agree(before, after, r.out.hits-hits0, r.out.misses-misses0); err != nil {
		return r.out, err
	}

	// From here the engine is at rest: the window's flush cycle, the
	// pipeline and compaction have finished. Live heap is what the engine
	// retains now less what is left once it is closed and dropped.
	if err := quiesce(eng); err != nil {
		return r.out, err
	}
	ref := r.reference()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	withEngine := ms.HeapAlloc

	list := r.checks
	if len(list) == 0 {
		rng := rand.New(rand.NewSource(r.seed))
		for i := 0; i < checks && r.probesUsed > 0; i++ {
			list = append(list, r.probes[rng.Intn(r.probesUsed)])
		}
	}
	r.verify(ref, list, false)
	if err := r.sys.Close(); err != nil {
		return r.out, fmt.Errorf("close: %w", err)
	}
	r.sys = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.out.liveHeap = int64(withEngine) - int64(ms.HeapAlloc)
	runtime.KeepAlive(ref)
	return r.out, nil
}

// open builds the system the repetition drives.
func (r *rep) open() (target, error) {
	opt := kflushing.Options{MemoryBudget: r.sp.budget, Durable: r.sp.durable}
	if r.tr != nil {
		return openTraced(r.dir, opt, r.tr)
	}
	return kflushing.Open(r.dir, opt)
}

// setup generates the inputs, opens the system and brings it to its
// steady state.
func (r *rep) setup() error {
	r.st = newStream(r.seed)
	r.vocab = r.st.vocab
	sys, err := r.open()
	if err != nil {
		return err
	}
	r.sys = sys
	// Fill: batches of 32 straight from the generator.
	batch := make([]*types.Microblog, 0, 32)
	var pending []input
	for n := 0; n < r.sp.fill; n++ {
		in := r.st.next()
		pending = append(pending, in)
		batch = append(batch, in.microblog(r.vocab))
		if len(batch) == cap(batch) || n == r.sp.fill-1 {
			ids, err := r.sys.IngestBatch(batch)
			if err != nil {
				return err
			}
			r.logIngested(pending, ids)
			batch, pending = batch[:0], pending[:0]
		}
	}
	// Warm-up: the workload's own step pattern.
	for s := 0; s < r.sp.warmSteps; s++ {
		ins := make([]input, r.sp.batch)
		for i := range ins {
			ins[i] = r.st.next()
		}
		if err := r.ingestSetup(ins); err != nil {
			return err
		}
		for q := 0; q < r.sp.queries; q++ {
			p := r.st.query()
			if _, err := r.sys.Search(p.keys(r.vocab, &r.keyBuf), p.op, k); err != nil {
				return err
			}
		}
	}
	for q := 0; q < r.sp.readback; q++ {
		r.readback = append(r.readback, r.st.query())
	}
	// The measured window's inputs, in the order the client issues them.
	steps := int(float64(r.sp.rate)*r.win.Seconds()) / (r.sp.batch + r.sp.queries)
	r.inputs = make([]input, 0, steps*r.sp.batch)
	r.probes = make([]probe, 0, steps*r.sp.queries)
	for s := 0; s < steps; s++ {
		for i := 0; i < r.sp.batch; i++ {
			r.inputs = append(r.inputs, r.st.next())
		}
		for q := 0; q < r.sp.queries; q++ {
			r.probes = append(r.probes, r.st.query())
		}
	}
	if r.sp.queries == 0 {
		// No window queries to sample from: draw the post-window check
		// queries from the stream as it stands after the window.
		for q := 0; q < checks; q++ {
			r.checks = append(r.checks, r.st.query())
		}
	}
	r.ids = slices.Grow(r.ids, len(r.inputs))
	r.st = nil // the generator and its query reservoir are done
	runtime.GC()
	return nil
}

func (r *rep) ingestSetup(ins []input) error {
	if len(ins) == 1 {
		id, err := r.sys.Ingest(ins[0].microblog(r.vocab))
		if err != nil {
			return err
		}
		r.logIngested(ins, []types.ID{id})
		return nil
	}
	mbs := make([]*types.Microblog, len(ins))
	for i := range ins {
		mbs[i] = ins[i].microblog(r.vocab)
	}
	ids, err := r.sys.IngestBatch(mbs)
	if err != nil {
		return err
	}
	r.logIngested(ins, ids)
	return nil
}

// logIngested keeps set-up records and their IDs for the reference.
func (r *rep) logIngested(ins []input, ids []types.ID) {
	for i := range ins {
		r.logged = append(r.logged, ins[i])
		r.ids = append(r.ids, uint32(ids[i]))
		r.out.userBytes += ins[i].userBytes(r.vocab)
	}
}

// measure is the closed loop: one client issuing the workload's ingest
// call, then its queries, each after the previous one returned, until
// the window ends.
func (r *rep) measure() {
	setupIDs := len(r.ids)
	var (
		pos, qpos int
		shift     types.Timestamp
		span      = r.inputs[len(r.inputs)-1].ts - r.inputs[0].ts + 1
		batch     = make([]*types.Microblog, r.sp.batch)
		wrapped   int
		lat       = &r.out.lat
		start     = time.Now()
		deadline  = start.Add(r.win)
	)
	windowQueries := len(r.probes)
	for time.Now().Before(deadline) {
		for i := range batch {
			if pos == len(r.inputs) {
				pos, shift, wrapped = 0, shift+span, wrapped+1
			}
			batch[i] = r.inputs[pos].microblog(r.vocab)
			batch[i].Timestamp += shift
			pos++
		}
		r.out.attempted += int64(len(batch))
		r.out.records += int64(len(batch))
		t := time.Now()
		if len(batch) == 1 {
			id, err := r.sys.Ingest(batch[0])
			lat.ingest = append(lat.ingest, time.Since(t).Nanoseconds())
			if err != nil {
				r.fail(fmt.Errorf("ingest: %w", err))
			}
			r.ids = append(r.ids, uint32(id))
		} else {
			ids, err := r.sys.IngestBatch(batch)
			lat.ingest = append(lat.ingest, time.Since(t).Nanoseconds())
			if err != nil {
				r.fail(fmt.Errorf("ingest: %w", err))
				ids = make([]types.ID, len(batch))
			}
			for _, id := range ids {
				r.ids = append(r.ids, uint32(id))
			}
		}
		for q := 0; q < r.sp.queries; q++ {
			if qpos == windowQueries {
				qpos = 0
			}
			p := &r.probes[qpos]
			qpos++
			t := time.Now()
			res, err := r.sys.Search(p.keys(r.vocab, &r.keyBuf), p.op, k)
			d := time.Since(t).Nanoseconds()
			r.out.attempted++
			r.out.queries++
			switch {
			case err != nil:
				r.fail(fmt.Errorf("search: %w", err))
			case res.MemoryHit:
				r.out.hits++
				lat.hit = append(lat.hit, d)
			default:
				r.out.misses++
				lat.miss = append(lat.miss, d)
			}
		}
	}
	r.out.wall = time.Since(start)
	for i := setupIDs; i < len(r.ids); i++ {
		in := &r.inputs[(i-setupIDs)%len(r.inputs)]
		r.out.userBytes += in.userBytes(r.vocab)
	}
	if wrapped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: the window reused its inputs %d times; raise the workload's rate\n",
			r.sp.name, r.seed, wrapped)
	}
	r.probesUsed = min(int(r.out.queries), windowQueries)
}

// agree checks the client's own counts against the deltas of the
// engine's registry — the counters /metrics exports — over the window.
func (r *rep) agree(before, after metrics.Snapshot, hits, misses int64) error {
	if r.out.failed > 0 {
		return nil // the run already fails on the failures themselves
	}
	got := [4]int64{after.Ingested - before.Ingested, after.Queries - before.Queries,
		after.Hits - before.Hits, after.Misses - before.Misses}
	want := [4]int64{r.out.records, r.out.queries, hits, misses}
	if got != want {
		return fmt.Errorf("counter disagreement: registry ingested/queries/hits/misses %v, client %v", got, want)
	}
	return nil
}

// reference builds the answer key from every record ingested so far.
func (r *rep) reference() *reference {
	ref := newReference(len(r.vocab))
	for i, id := range r.ids {
		var in *input
		if i < len(r.logged) {
			in = &r.logged[i]
		} else {
			in = &r.inputs[(i-len(r.logged))%len(r.inputs)]
		}
		if id != 0 {
			ref.add(in, uint64(id))
		}
	}
	return ref
}

// verify runs queries against the reference. Records are in neither
// memory nor disk while a flush cycle moves them, so it is only called
// once quiesce has run. timed queries count towards the hit and miss
// figures (the ingest-storm read-back).
func (r *rep) verify(ref *reference, list []probe, timed bool) {
	for i := range list {
		p := &list[i]
		t := time.Now()
		res, err := r.sys.Search(p.keys(r.vocab, &r.keyBuf), p.op, k)
		d := time.Since(t).Nanoseconds()
		r.out.attempted++
		if err != nil {
			r.fail(fmt.Errorf("search: %w", err))
			continue
		}
		if timed {
			if res.MemoryHit {
				r.out.hits++
				r.out.lat.hit = append(r.out.lat.hit, d)
			} else {
				r.out.misses++
				r.out.lat.miss = append(r.out.lat.miss, d)
			}
		}
		if err := ref.verify(p, k, res, r.vocab); err != nil {
			r.fail(err)
		}
	}
}

// quiesce waits for the flush gate (by running one manual cycle, which
// blocks until the in-flight one ends), then for the flush pipeline to
// install every queued batch and for compaction to catch up.
func quiesce(eng *engine.Engine[string]) error {
	if _, err := eng.FlushNow(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for h := eng.DiskHealth(); h.PipelineDepth > 0 || h.CompactionBacklog > 0; h = eng.DiskHealth() {
		if time.Now().After(deadline) {
			return errors.New("flushing and compaction did not settle within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// repDir is a repetition's system directory under the run's work
// directory.
func repDir(work string, sp spec, seed int64, traced bool) string {
	kind := "plain"
	if traced {
		kind = "traced"
	}
	return filepath.Join(work, fmt.Sprintf("%s-%d-%s-%d", sp.name, seed, kind, os.Getpid()))
}
