package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle value (mean of the two middle ones), or 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler tracks the peak resident set size of this process while a
// workload runs. Memory is returned to the OS before sampling starts, so
// the peak is the workload's own, not left over from set-up.
type rssSampler struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	wg   sync.WaitGroup
}

func startRSS() *rssSampler {
	settle()
	s := &rssSampler{stop: make(chan struct{})}
	s.peak.Store(rssBytes())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if b := rssBytes(); b > s.peak.Load() {
					s.peak.Store(b)
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	if b := rssBytes(); b > s.peak.Load() {
		s.peak.Store(b)
	}
	return float64(s.peak.Load()) / (1 << 20)
}

// settle collects garbage and returns free memory to the OS, so the
// next measurement neither competes with the collector nor inherits the
// previous step's heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rssBytes reads VmRSS from /proc/self/status (0 where unavailable).
func rssBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// commitOf names the commit of the checkout at root from .git/HEAD,
// resolved by hand, or "unknown" for a checkout exported without git
// metadata.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod of the program under
// root (paths and contents, in path order), so a result names the exact
// source it measured even when the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
