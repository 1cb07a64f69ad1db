package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies what was measured and where. Results from different
// hosts are not comparable, and the compare step refuses to mix them.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Seconds:    cfg.seconds,
		Commit:     cfg.commit,
		Tree:       treeDigest("."),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

// host is the part of a stamp that must match for two results to be
// compared.
func (s stamp) host() string {
	return strings.Join([]string{s.CPU, strconv.Itoa(s.NProc), strconv.Itoa(s.GOMAXPROCS), s.Go}, " | ")
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes the program's Go sources and module files under root,
// leaving out this benchmark and build outputs, so a result names the code
// it measured even where no version control is available.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() {
			switch d.Name() {
			case "hostbench", ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
