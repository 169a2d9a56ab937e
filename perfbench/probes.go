package main

import (
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/par"
	"repro/internal/pdm"
)

// probeSeconds bounds each timed probe loop.
const probeSeconds = 0.3

// probeLayers fills the per-layer metrics that come from small probes of
// exported functions rather than from the workload's own ops: the disk
// backend's block cost and the in-memory kernels' rates.
func probeLayers(cfg config, v map[string]float64, backend, kernel string) error {
	r, w, err := probeBlocks(filepath.Join(cfg.dir, "probe"), backend)
	if err != nil {
		return err
	}
	v["pdm.block_read_us"] = r
	v["pdm.block_write_us"] = w
	k := par.KernelComparison
	if kernel == repro.KernelRadix {
		k = par.KernelRadix
	}
	pool := par.NewWithKernel(loadWidth, nil, k)
	v["memsort.runform_keys_per_s"] = probeRunForm(pool, cfg.seed)
	v["memsort.merge_keys_per_s"] = probeMerge(pool, cfg.seed)
	return nil
}

// defaultKernel is the kernel Auto resolves for the benchmark's machine
// geometry (what every scheduler job runs with).
func defaultKernel() (string, error) {
	m, err := repro.NewMachine(repro.MachineConfig{Memory: benchMem})
	if err != nil {
		return "", err
	}
	defer m.Close()
	return m.Kernel(), nil
}

// probeBlocks times ReadBlock and WriteBlock of one disk of the given
// backend on 128-key blocks, in microseconds per block (medians of five
// sweeps over 4096 blocks).
func probeBlocks(dir, backend string) (readUS, writeUS float64, err error) {
	const b, blocks = 128, 4096
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	var d pdm.Disk
	if backend == repro.BackendMmap {
		var ds []pdm.Disk
		ds, err = pdm.NewMmapDisks(dir, 1, b)
		if err == nil {
			d = ds[0]
		}
	} else {
		d, err = pdm.NewFileDisk(filepath.Join(dir, "disk.bin"), b)
	}
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	buf := make([]int64, b)
	var rs, ws []float64
	for sweep := 0; sweep < 5; sweep++ {
		t0 := time.Now()
		for i := 0; i < blocks; i++ {
			buf[0] = int64(i)
			if err := d.WriteBlock(i, buf); err != nil {
				return 0, 0, err
			}
		}
		ws = append(ws, time.Since(t0).Seconds()/blocks)
		t0 = time.Now()
		for i := 0; i < blocks; i++ {
			if err := d.ReadBlock(i, buf); err != nil {
				return 0, 0, err
			}
		}
		rs = append(rs, time.Since(t0).Seconds()/blocks)
	}
	return median(rs) * 1e6, median(ws) * 1e6, nil
}

// probeRunForm is the pool's run-formation rate: SortKeys on M-key
// memory loads of uniform keys.
func probeRunForm(pool *par.Pool, seed int64) float64 {
	src, _ := (&repro.WorkloadSpec{Kind: "uniform", N: benchMem, Seed: seed}).Generate()
	buf := make([]int64, benchMem)
	var busy time.Duration
	keys := 0
	for busy.Seconds() < probeSeconds {
		copy(buf, src)
		t0 := time.Now()
		pool.SortKeys(buf)
		busy += time.Since(t0)
		keys += benchMem
	}
	return float64(keys) / busy.Seconds()
}

// probeMerge is the pool's k-way merge rate on lanes shaped like
// sort-keys' merge pass: √M sorted lanes of √M keys, M keys per merge.
func probeMerge(pool *par.Pool, seed int64) float64 {
	const lanes, laneKeys = 128, benchMem / 128
	src, _ := (&repro.WorkloadSpec{Kind: "uniform", N: benchMem, Seed: seed}).Generate()
	for l := 0; l < lanes; l++ {
		par.New(1).SortKeys(src[l*laneKeys : (l+1)*laneKeys])
	}
	dst := make([]int64, benchMem)
	in := make([][]int64, lanes)
	var busy time.Duration
	keys := 0
	for busy.Seconds() < probeSeconds {
		for l := range in {
			in[l] = src[l*laneKeys : (l+1)*laneKeys]
		}
		t0 := time.Now()
		pool.MultiMerge(dst, in)
		busy += time.Since(t0)
		keys += benchMem
	}
	return float64(keys) / busy.Seconds()
}
