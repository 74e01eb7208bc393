package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo is the header of every report: a wall-clock number means
// nothing without the machine and the commit it was taken on.
type hostInfo struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every child, pinned by the driver
	GOGC       string `json:"gogc"`
}

func readHost() hostInfo {
	return hostInfo{
		Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: cpuModel(), Commit: commit(),
		GOMAXPROCS: childProcs, GOGC: "default (100)",
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%s, nproc %d, %s, commit %s, GOMAXPROCS %d, GOGC %s",
		h.Go, h.NProc, h.CPU, h.Commit, h.GOMAXPROCS, h.GOGC)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// commit is the revision the binary was stamped with (go build in a git
// checkout), else what git says, else unknown — the contract's checkout
// is not a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev[:min(12, len(rev))] + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
