package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// profileLayers are the packages the CPU profile's self time is split into;
// everything else is counted as "other".
var profileLayers = []string{"congest", "graph", "wire", "dra", "core", "stepsim", "rotation", "cycle", "dist", "serve", "runtime", "syscall"}

// layerOf maps a symbolized function name, as pprof prints it, to its layer:
// a package of this repository by its directory name under internal/, the Go
// runtime, the system-call packages, or "other".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain package paths
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "dhc/internal/"):
		name := strings.TrimPrefix(pkg, "dhc/internal/")
		for _, l := range profileLayers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "syscall", pkg == "internal/runtime/syscall", pkg == "runtime/internal/syscall",
		pkg == "internal/syscall/unix", pkg == "golang.org/x/sys/unix":
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// selfShares parses `go tool pprof -top` output and sums each function's flat
// (self) share of all samples into its layer. Every layer in profileLayers
// is present in the result, zero when it had no samples.
func selfShares(top string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, l := range profileLayers {
		out[l] = 0
	}
	rows := 0
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the column header
		}
		out[layerOf(strings.Join(f[5:], " "))] += pct / 100
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof output has no sample rows")
	}
	return out, nil
}

// profileShares aggregates a CPU profile with the toolchain's pprof.
func profileShares(profile, tmpDir string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}
	if exe, err := os.Executable(); err == nil {
		args = append(args, exe)
	}
	cmd := exec.Command("go", append(args, profile)...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return selfShares(string(top))
}
