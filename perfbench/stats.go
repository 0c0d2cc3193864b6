package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile before
// the benchmark reports it; p90 therefore needs at least 100 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and how many samples lie strictly beyond its rank. xs need not be sorted;
// it is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile under the reporting rule: it fails unless at
// least minBeyond samples lie beyond the percentile.
func tailPercentile(xs []float64, p float64) (float64, error) {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g rests on %d samples beyond it (need %d; have %d samples)", p, beyond, minBeyond, len(xs))
	}
	return v, nil
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// minOpsFor is the smallest sample count at which tailPercentile(p) succeeds.
func minOpsFor(p float64) int {
	for n := 1; ; n++ {
		if _, beyond := percentile(make([]float64, n), p); beyond >= minBeyond {
			return n
		}
	}
}

// digestOf hashes a pass of operation records in order.
func digestOf(records [][]byte) string {
	h := sha256.New()
	for _, r := range records {
		fmt.Fprintf(h, "%d:", len(r))
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares digest against the one stored under key in dir, and
// stores it when none is stored yet. Workloads that must agree byte for byte
// (the in-process and the sharded exact engine) share a key, so whichever
// runs second is checked against the first.
func checkDigest(dir, key, digest string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key+".sha256")
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			return fmt.Errorf("digest %s differs from stored %s (%s)", digest, prev, path)
		}
		return nil
	case !os.IsNotExist(err):
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(digest); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
