package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// procIO is this process's I/O accounting from /proc/self/io: bytes
// passed to write calls (page cache included) and the write and read
// call counts.
type procIO struct {
	wchar, syscw, syscr int64
}

func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	var io procIO
	fields := map[string]*int64{"wchar": &io.wchar, "syscw": &io.syscw, "syscr": &io.syscr}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if p := fields[name]; ok && p != nil {
			if *p, err = strconv.ParseInt(strings.TrimSpace(val), 10, 64); err != nil {
				return procIO{}, fmt.Errorf("/proc/self/io %s: %w", name, err)
			}
		}
	}
	return io, sc.Err()
}

// dirSize sums the sizes of the regular files under dir. Files removed
// by a concurrent compaction while the walk runs are skipped.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// percentile returns the p-th percentile (0 < p < 100) of ns in
// microseconds by the nearest-rank rule, and the percentile actually
// used: the highest of p, 90 and 50 that leaves at least ten samples
// beyond it. ns is sorted in place.
func percentile(ns []int64, p float64) (us, used float64) {
	if len(ns) == 0 {
		return 0, p
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, q := range []float64{p, 90, 50} {
		used = q
		if q <= p && float64(len(ns))*(1-q/100) >= 10 {
			break
		}
	}
	rank := int(float64(len(ns))*used/100+0.999999) - 1
	rank = max(0, min(rank, len(ns)-1))
	return float64(ns[rank]) / 1e3, used
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
