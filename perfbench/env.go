package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
)

// envStamp identifies what a result was measured on and with.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the git HEAD when the sources are a git checkout;
	// SourceSHA256 identifies the sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func stamp(w workload, seed int64, seconds int, traced bool) envStamp {
	return envStamp{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Commit:       gitHead(),
		SourceSHA256: sourceDigest("."),
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead is the commit checked out in the working directory, when it is
// the root of a git checkout.
func gitHead() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and contents of every Go source and module
// file under root, skipping hidden directories (build output, VCS data).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runtimeSnapshot is the allocation and GC CPU state at one moment.
type runtimeSnapshot struct {
	allocBytes uint64
	gcCPU      float64 // seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSnapshot {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSnapshot
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	return r
}
