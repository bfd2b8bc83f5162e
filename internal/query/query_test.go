package query

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"kflushing/internal/types"
)

func it(id uint64, score float64) Item {
	return Item{MB: &types.Microblog{ID: types.ID(id)}, Score: score}
}

func ids(items []Item) []uint64 {
	out := make([]uint64, len(items))
	for i, x := range items {
		out[i] = uint64(x.MB.ID)
	}
	return out
}

func TestMergeTopKRanksAndDedupes(t *testing.T) {
	a := []Item{it(1, 10), it(2, 5)}
	b := []Item{it(3, 7), it(1, 10)} // duplicate id 1
	got := MergeTopK([][]Item{a, b}, 2)
	want := []uint64{1, 3}
	if len(got) != 2 || got[0].MB.ID != types.ID(want[0]) || got[1].MB.ID != types.ID(want[1]) {
		t.Fatalf("got %v, want %v", ids(got), want)
	}
}

func TestMergeTopKFewerThanK(t *testing.T) {
	got := MergeTopK([][]Item{{it(1, 1)}}, 10)
	if len(got) != 1 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestIntersectTopK(t *testing.T) {
	a := []Item{it(1, 10), it(2, 5), it(3, 3)}
	b := []Item{it(2, 5), it(3, 3), it(4, 9)}
	got := IntersectTopK([][]Item{a, b}, 5)
	if len(got) != 2 || got[0].MB.ID != 2 || got[1].MB.ID != 3 {
		t.Fatalf("got %v", ids(got))
	}
}

func TestIntersectSingleList(t *testing.T) {
	a := []Item{it(2, 5), it(1, 10)}
	got := IntersectTopK([][]Item{a}, 1)
	if len(got) != 1 || got[0].MB.ID != 1 {
		t.Fatalf("got %v", ids(got))
	}
}

func TestIntersectEmpty(t *testing.T) {
	if got := IntersectTopK(nil, 5); got != nil {
		t.Fatalf("got %v", got)
	}
	a := []Item{it(1, 1)}
	b := []Item{it(2, 2)}
	if got := IntersectTopK([][]Item{a, b}, 5); len(got) != 0 {
		t.Fatalf("disjoint intersection returned %v", ids(got))
	}
}

func TestTieBreakByID(t *testing.T) {
	// Equal scores: higher ID (more recent arrival) ranks first.
	got := MergeTopK([][]Item{{it(1, 5), it(9, 5), it(4, 5)}}, 3)
	want := []uint64{9, 4, 1}
	for i, w := range want {
		if uint64(got[i].MB.ID) != w {
			t.Fatalf("got %v, want %v", ids(got), want)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSingle: "single", OpOr: "or", OpAnd: "and", Op(99): "op?"} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q", op, op.String())
		}
	}
}

// Property: MergeTopK equals brute-force sort+dedup+truncate.
func TestMergeTopKProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%20) + 1
		var lists [][]Item
		unique := map[types.ID]Item{}
		for l := 0; l < 3; l++ {
			var list []Item
			for i := 0; i < rng.Intn(20); i++ {
				x := it(uint64(rng.Intn(30)+1), float64(rng.Intn(10)))
				list = append(list, x)
			}
			lists = append(lists, list)
		}
		// Brute force: first occurrence wins the dedup.
		seen := map[types.ID]bool{}
		var all []Item
		for _, l := range lists {
			for _, x := range l {
				if !seen[x.MB.ID] {
					seen[x.MB.ID] = true
					all = append(all, x)
					unique[x.MB.ID] = x
				}
			}
		}
		sort.Slice(all, func(i, j int) bool { return Compare(all[i], all[j]) < 0 })
		if len(all) > k {
			all = all[:k]
		}
		got := MergeTopK(lists, k)
		if len(got) != len(all) {
			return false
		}
		for i := range got {
			// Scores must match rank for rank; IDs may differ only on
			// exact (score, ID) ties, which Compare fully orders, so
			// require identical IDs too.
			if got[i].MB.ID != all[i].MB.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: IntersectTopK items appear in every input list.
func TestIntersectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() ([]Item, map[types.ID]bool) {
			var list []Item
			present := map[types.ID]bool{}
			for i := 0; i < rng.Intn(25); i++ {
				id := types.ID(rng.Intn(20) + 1)
				if present[id] {
					continue
				}
				present[id] = true
				list = append(list, it(uint64(id), float64(id)))
			}
			return list, present
		}
		a, pa := mk()
		b, pb := mk()
		got := IntersectTopK([][]Item{a, b}, 50)
		for _, x := range got {
			if !pa[x.MB.ID] || !pb[x.MB.ID] {
				return false
			}
		}
		// Completeness: every common ID is present.
		common := 0
		for id := range pa {
			if pb[id] {
				common++
			}
		}
		return len(got) == common
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refMergeTopK is the map-based MergeTopK the sort-based one replaced,
// kept as the equivalence reference.
func refMergeTopK(lists [][]Item, k int) []Item {
	var all []Item
	seen := make(map[types.ID]struct{})
	for _, l := range lists {
		for _, it := range l {
			if _, dup := seen[it.MB.ID]; dup {
				continue
			}
			seen[it.MB.ID] = struct{}{}
			all = append(all, it)
		}
	}
	sort.Slice(all, func(i, j int) bool { return Compare(all[i], all[j]) < 0 })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// refIntersectTopK is the map-based IntersectTopK the two-pointer walk
// replaced, kept as the equivalence reference.
func refIntersectTopK(lists [][]Item, k int) []Item {
	if len(lists) == 0 {
		return nil
	}
	if len(lists) == 1 {
		out := append([]Item(nil), lists[0]...)
		sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
		if len(out) > k {
			out = out[:k]
		}
		return out
	}
	counts := make(map[types.ID]int)
	keep := make(map[types.ID]Item)
	for _, l := range lists {
		for _, it := range l {
			counts[it.MB.ID]++
			keep[it.MB.ID] = it
		}
	}
	var out []Item
	for id, c := range counts {
		if c == len(lists) {
			out = append(out, keep[id])
		}
	}
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MB.ID != b[i].MB.ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestMergeTopKMatchesReference checks the sort-based merge against the
// map-based reference on random unsorted lists, duplicate IDs with
// conflicting scores (first occurrence wins) and k beyond the input.
func TestMergeTopKMatchesReference(t *testing.T) {
	f := func(seed int64, kRaw uint8, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%70) + 1
		lists := make([][]Item, rng.Intn(5))
		for l := range lists {
			for i, n := 0, rng.Intn(25); i < n; i++ {
				lists[l] = append(lists[l], it(uint64(rng.Intn(40)+1), float64(rng.Intn(8))))
			}
			if sorted {
				SortRanked(lists[l])
			}
		}
		want := refMergeTopK(lists, k)
		if got := MergeTopK(lists, k); !sameItems(got, want) {
			t.Logf("k=%d lists=%v: got %v, want %v", k, lists, ids(got), ids(want))
			return false
		}
		// The append form leaves dst's prefix alone.
		prefix := []Item{it(999, 1)}
		got := AppendMergeTopK(prefix, lists, k)
		return got[0].MB.ID == 999 && sameItems(got[1:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectTopKMatchesReference checks the two-pointer intersection
// against the map-based reference: one to nine lists, sorted or not,
// scores fixed per ID (the contract: one record, one score) and k both
// below and beyond the intersection.
func TestIntersectTopKMatchesReference(t *testing.T) {
	f := func(seed int64, kRaw uint8, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%30) + 1
		score := make([]float64, 31)
		for i := range score {
			score[i] = float64(rng.Intn(6))
		}
		lists := make([][]Item, rng.Intn(9)+1)
		for l := range lists {
			for _, id := range rng.Perm(30)[:rng.Intn(25)] {
				lists[l] = append(lists[l], it(uint64(id+1), score[id+1]))
			}
			if sorted {
				SortRanked(lists[l])
			}
		}
		want := refIntersectTopK(lists, k)
		if got := IntersectTopK(lists, k); !sameItems(got, want) {
			t.Logf("k=%d: got %v, want %v", k, ids(got), ids(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectTopKLeavesInputs pins that unsorted inputs are sorted in
// a copy, never in place: the disk tier and the engine reuse them.
func TestIntersectTopKLeavesInputs(t *testing.T) {
	a := []Item{it(1, 1), it(2, 5), it(3, 3)}
	b := []Item{it(3, 3), it(2, 5)}
	got := IntersectTopK([][]Item{a, b}, 5)
	if len(got) != 2 || got[0].MB.ID != 2 || got[1].MB.ID != 3 {
		t.Fatalf("got %v", ids(got))
	}
	if a[0].MB.ID != 1 || b[0].MB.ID != 3 {
		t.Fatalf("inputs reordered: %v %v", ids(a), ids(b))
	}
}

// TestRankedHelpersAllocs pins the helpers' allocation floor on the
// engine's inputs: ranked lists and a reusable destination.
func TestRankedHelpersAllocs(t *testing.T) {
	var a, b []Item
	for i := 40; i > 0; i-- {
		a = append(a, it(uint64(i), float64(i)))
		if i%2 == 0 {
			b = append(b, it(uint64(i), float64(i)))
		}
	}
	lists := [][]Item{a, b}
	dst := make([]Item, 0, 128)
	if n := testing.AllocsPerRun(100, func() { dst = AppendMergeTopK(dst[:0], lists, 20) }); n != 0 {
		t.Errorf("AppendMergeTopK allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst = AppendIntersectTopK(dst[:0], lists, 20) }); n != 0 {
		t.Errorf("AppendIntersectTopK allocates %.1f/op, want 0", n)
	}
}
