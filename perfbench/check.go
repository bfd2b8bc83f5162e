package main

import (
	"fmt"
	"sort"

	"kflushing/internal/query"
)

// reference is the answer key: for every vocabulary keyword, the IDs of
// the records ingested under it, in ingest order. The system ranks
// temporally and every generated record is newer than the one before,
// so a key's top-k is the tail of its list, newest first.
type reference struct {
	ids [][]uint32 // indexed by vocabulary rank
}

func newReference(vocab int) *reference {
	return &reference{ids: make([][]uint32, vocab)}
}

// add records the ID the system assigned to in.
func (r *reference) add(in *input, id uint64) {
	for i := 0; i < int(in.nkw); i++ {
		kw := in.kw[i]
		if dupKeyword(in, i) {
			continue
		}
		r.ids[kw] = append(r.ids[kw], uint32(id))
	}
}

// dupKeyword reports whether in's i-th keyword repeats an earlier one;
// the system indexes a record once per distinct keyword.
func dupKeyword(in *input, i int) bool {
	for j := 0; j < i; j++ {
		if in.kw[j] == in.kw[i] {
			return true
		}
	}
	return false
}

// expect returns the correct top-k IDs for p, best first.
func (r *reference) expect(p *probe, k int) []uint32 {
	a := r.ids[p.kw[0]]
	if p.n == 1 || p.op == query.OpSingle {
		return newest(a, k)
	}
	b := r.ids[p.kw[1]]
	out := make([]uint32, 0, k)
	i, j := len(a)-1, len(b)-1
	switch p.op {
	case query.OpOr:
		for len(out) < k && (i >= 0 || j >= 0) {
			switch {
			case j < 0 || (i >= 0 && a[i] > b[j]):
				out = append(out, a[i])
				i--
			case i < 0 || b[j] > a[i]:
				out = append(out, b[j])
				j--
			default: // the same record under both keys
				out = append(out, a[i])
				i--
				j--
			}
		}
	case query.OpAnd:
		if len(a) > len(b) {
			a, b = b, a
		}
		for i = len(a) - 1; i >= 0 && len(out) < k; i-- {
			x := sort.Search(len(b), func(n int) bool { return b[n] >= a[i] })
			if x < len(b) && b[x] == a[i] {
				out = append(out, a[i])
			}
		}
	}
	return out
}

func newest(ids []uint32, k int) []uint32 {
	out := make([]uint32, 0, k)
	for i := len(ids) - 1; i >= 0 && len(out) < k; i-- {
		out = append(out, ids[i])
	}
	return out
}

// verify compares an answer with the reference and describes the first
// difference.
func (r *reference) verify(p *probe, k int, res query.Result, vocab []string) error {
	want := r.expect(p, k)
	ok := len(res.Items) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = uint64(res.Items[i].MB.ID) == uint64(want[i])
	}
	if ok {
		return nil
	}
	got := make([]uint64, len(res.Items))
	for i, it := range res.Items {
		got[i] = uint64(it.MB.ID)
	}
	var buf [2]string
	return fmt.Errorf("wrong answer to %v %v: got %v, want %v", p.op, p.keys(vocab, &buf), got, want)
}
