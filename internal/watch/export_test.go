package watch

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Quantile is the q-quantile of the histogram family's observations in
// the last window, interpolated by metrics.BucketQuantile like the live
// Histogram.Quantile. Missing when the window holds no observation.
func Quantile(family string, q float64, window time.Duration) Expr {
	return func(v View) (float64, bool) {
		return v.DB.QuantileOverTime(family, "", q, v.Now.Add(-window), v.Now)
	}
}

// Latest returns the path of the newest diagnostic bundle in dir, or
// "" when none exist.
func Latest(dir string) (string, error) {
	paths, err := listBundles(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	if len(paths) == 0 {
		return "", nil
	}
	return paths[len(paths)-1], nil
}

// ReadBundle loads and decodes a bundle file.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("watch: bundle %s: %w", path, err)
	}
	return &b, nil
}

// Breaches returns how many breaches have fired since construction.
func (w *Watchdog) Breaches() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.breaches
}
