package main

import (
	"fmt"
	"strconv"
	"strings"

	"kflushing/internal/gen"
	"kflushing/internal/query"
	"kflushing/internal/types"
	"kflushing/internal/workload"
)

// input is one pre-generated record in compact form. Set-up draws every
// record from gen and packs it here; the measured loop turns it back
// into a fresh *types.Microblog right before the call that hands it to
// the system. Keywords are indices into the generator's vocabulary, and
// the text keeps only its generated length (its bytes come from filler;
// the system stores text but never searches it). The struct holds no
// pointers, so the garbage collector never scans the pre-generated
// inputs and the engine's collections cost what they would without the
// benchmark.
type input struct {
	ts        types.Timestamp
	lat, lon  float64
	user      uint32
	followers uint32
	kw        [3]int32
	textLen   uint16
	nkw       uint8
	geo       bool
}

// probe is one pre-generated query: the vocabulary indices of its
// keywords and its operator. Like input, it holds no pointers.
type probe struct {
	kw [2]int32
	n  uint8
	op query.Op
}

// filler supplies the bytes of every record's text.
var filler = strings.Repeat("the quick onyx goblin jumps over a lazy dwarf ", 32)

// stream generates one workload's records and correlated queries from a
// seed. Records and queries are drawn in the order the closed-loop
// client issues them, so a query samples exactly the records a live
// client would have ingested before it.
type stream struct {
	g     *gen.Generator
	src   workload.Source[string]
	obs   workload.Observer
	vocab []string
}

func newStream(seed int64) *stream {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	g := gen.New(cfg)
	src := workload.KeywordCorrelated(cfg, seed)
	return &stream{g: g, src: src, obs: src.(workload.Observer), vocab: g.Vocab()}
}

// vocabIndex maps a generated keyword back to its vocabulary index. The
// generator names rank r "tag%05x".
func (s *stream) vocabIndex(kw string) int32 {
	v, err := strconv.ParseUint(kw[3:], 16, 32)
	if err != nil || int(v) >= len(s.vocab) || s.vocab[v] != kw {
		panic(fmt.Sprintf("perfbench: keyword %q is not in the generator vocabulary", kw))
	}
	return int32(v)
}

// next draws the next record, shows it to the query source and returns
// it packed.
func (s *stream) next() input {
	mb := s.g.Next()
	s.obs.Observe(mb)
	if len(mb.Text) > len(filler) {
		panic(fmt.Sprintf("perfbench: generated text of %d bytes exceeds the filler", len(mb.Text)))
	}
	in := input{
		textLen: uint16(len(mb.Text)), ts: mb.Timestamp, lat: mb.Lat, lon: mb.Lon,
		user: uint32(mb.UserID), followers: mb.Followers,
		nkw: uint8(len(mb.Keywords)), geo: mb.HasGeo,
	}
	for i, kw := range mb.Keywords {
		in.kw[i] = s.vocabIndex(kw)
	}
	return in
}

// query draws the next correlated query.
func (s *stream) query() probe {
	q := s.src.Next()
	p := probe{n: uint8(len(q.Keys)), op: q.Op}
	for i, k := range q.Keys {
		p.kw[i] = s.vocabIndex(k)
	}
	return p
}

// microblog builds the record the system takes ownership of.
func (in *input) microblog(vocab []string) *types.Microblog {
	mb := &types.Microblog{
		Timestamp: in.ts, UserID: uint64(in.user), Followers: in.followers,
		Lat: in.lat, Lon: in.lon, HasGeo: in.geo, Text: filler[:in.textLen],
		Keywords: make([]string, in.nkw),
	}
	for i := range mb.Keywords {
		mb.Keywords[i] = vocab[in.kw[i]]
	}
	return mb
}

// userBytes is the record's user payload: text, keywords and the 36
// bytes of fixed fields (timestamp, user, followers, latitude,
// longitude). write_amp and space_amp divide by it.
func (in *input) userBytes(vocab []string) int64 {
	n := int64(in.textLen) + 36
	for i := 0; i < int(in.nkw); i++ {
		n += int64(len(vocab[in.kw[i]]))
	}
	return n
}

// keys renders the query's keywords into buf, which the caller reuses
// from one call to the next.
func (p *probe) keys(vocab []string, buf *[2]string) []string {
	for i := 0; i < int(p.n); i++ {
		buf[i] = vocab[p.kw[i]]
	}
	return buf[:p.n]
}
