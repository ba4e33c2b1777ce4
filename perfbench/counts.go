package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// compareCounts checks a traced run's exact counts against the ones an
// earlier traced run with the same workload, seed and -seconds stored
// under dir, and stores them when none exist yet. Any difference is
// nondeterminism: these counts depend only on the seeded inputs and
// the (fixed) amount of work.
func compareCounts(dir string, cfg runConfig, counts map[string]float64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%gs-short%v.json", cfg.workload, cfg.seed, cfg.seconds, cfg.short))
	prev := map[string]float64{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		data, err := json.Marshal(counts)
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, data, 0o644)
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var drift []string
	for k, v := range counts {
		if p, ok := prev[k]; ok && p != v {
			drift = append(drift, fmt.Sprintf("%s: %v, earlier run with this seed %v", k, v, p))
		}
	}
	sort.Strings(drift)
	return drift, nil
}
