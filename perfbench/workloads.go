package main

import "time"

// spec is one workload. Every workload runs the shipped defaults —
// kFlushing, k=20, B=10%, background flushing, the flush pipeline, the
// leveled tier, pooled allocation, tuner off — and varies only what is
// listed here.
type spec struct {
	name string
	// budget is the memory budget in bytes.
	budget int64
	// durable turns on the write-ahead log with its shipped settings.
	durable bool
	// fill records are ingested in batches of 32 during set-up, then
	// warmSteps steps of the workload's own ingest/query pattern run, so
	// memory is full, flushing is past several cycles and the record
	// cache is warm before anything is measured. For cold-reads the fill
	// is the disk-tier build.
	fill, warmSteps int
	// batch is the records per ingest call; 1 uses Ingest, more uses
	// IngestBatch.
	batch int
	// queries is the number of queries after each ingest call.
	queries int
	// rate is the highest ops/s a measured window is generated for; a
	// faster system reuses the window's inputs from the start, with
	// timestamps moved forward (reported on stderr).
	rate int
	// readback is the number of queries timed after the fill, once
	// flushing has settled, for a workload whose window has none
	// (ingest-storm). It supplies that workload's query metrics without
	// mixing reads into its ingest figures, against a disk tier whose
	// shape does not depend on how far a timed window got.
	readback int
	// minFlushes, minCompactions and minMissShare are the steady-state
	// guards a run's measured windows must meet, taken together.
	minFlushes     int64
	minCompactions int64
	minMissShare   float64
}

// k is the top-k of every query (the paper's default).
const k = 20

var specs = []spec{
	{
		name: "paper-mix", budget: 30 << 20,
		fill: 160_000, warmSteps: 30_000,
		batch: 1, queries: 1, rate: 60_000,
		minFlushes: 5,
	},
	{
		name: "ingest-storm", budget: 8 << 20, durable: true,
		fill:  40_000,
		batch: 32, queries: 0, rate: 400_000, readback: 30_000,
		minFlushes: 10, minCompactions: 3,
	},
	{
		name: "cold-reads", budget: 4 << 20,
		fill: 200_000, warmSteps: 1_500,
		batch: 1, queries: 8, rate: 30_000,
		minMissShare: 0.55,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// reps is the number of independent set-ups per run: set-up time is the
// median over them and each measures an equal share of the run.
const reps = 5

// checks is the number of answers checked against the reference after
// each repetition's measured window: a seeded sample of the window's
// queries, or fresh queries on the stream when the window has none.
const checks = 1500

// window is one repetition's share of the run.
func window(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / reps
}
