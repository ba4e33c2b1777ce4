package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint describes the machine a result was measured on: CPU
// model, CPU count, GOMAXPROCS, Go version, and the filesystem the
// workloads' data directories live on (WAL fsync cost depends on it).
func fingerprint(dataDir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dataDir, err)
	}
	fp := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"data_fs":    fsName(int64(st.Type)),
	}
	b, err := json.Marshal(fp)
	return string(b), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
