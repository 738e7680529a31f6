//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testHunt mines a short fixed-seed corpus and proves its layout, its
// byte-identity across GOMAXPROCS and -workers, strict replay, and the
// dvreport merge of its escape-rate table.
func testHunt(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-model", fx.model, "-validator", fx.validator}, dataFlags...)
	args = append(args, "-seeds", "16", "-seed", "7", "-budget", "1200", "-batch", "64", "-fpr", "0.1", "-max-saved", "8")
	corpus, corpus4 := filepath.Join(dir, "escapes"), filepath.Join(dir, "escapes4")

	out := output(t, []string{"GOMAXPROCS=1"}, "dvhunt", append(args, "-workers", "1", "-telemetry", "-out", corpus)...)
	contains(t, "dvhunt output", out, "Escape rate", "dv_hunt_evals_total")
	for _, f := range []string{"manifest.json", "rates.json"} {
		if _, err := os.Stat(filepath.Join(corpus, f)); err != nil {
			t.Fatal(err)
		}
	}
	saved, _ := filepath.Glob(filepath.Join(corpus, "escape-*.dvart"))
	if len(saved) == 0 {
		t.Fatal("hunt persisted no escape artifacts")
	}
	for _, f := range saved {
		wantMagic(t, f)
	}

	output(t, []string{"GOMAXPROCS=4"}, "dvhunt", append(args, "-workers", "4", "-out", corpus4)...)
	a, b := tree(t, corpus), tree(t, corpus4)
	if len(a) != len(b) {
		t.Fatalf("corpus at GOMAXPROCS=1 has %d files, at GOMAXPROCS=4 %d", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Fatalf("%s differs between GOMAXPROCS=1 -workers 1 and GOMAXPROCS=4 -workers 4", name)
		}
	}

	out = output(t, nil, "dvhunt", "-model", fx.model, "-validator", fx.validator,
		"-replay", corpus, "-strict", "-workers", "2")
	contains(t, "replay output", out, "0 verdicts diverged from manifest, 0 with transformed-pixel drift")

	out = output(t, nil, "dvreport", "-scale", "quick", "-cache", filepath.Join(dir, "cache"),
		"-attacks=false", "-datasets", "digits", "-hunt", corpus)
	contains(t, "dvreport output", out, "Detector-escape mining", "persisted escapes")
}

// tree maps every file under root, by relative path, to its bytes.
func tree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// testAllocGate is the scoring hot path's allocation-regression gate:
// BenchmarkScoreBatch/workers=1 must allocate at most twice the bytes
// per op recorded in BENCH_pipeline.json. It runs at one P, as the
// baseline was recorded. With more Ps, two iterations sometimes
// measure ~8x the baseline, probably because the validator keeps its
// scoring arenas in a sync.Pool and a goroutine that moves to another
// P builds a second arena.
func testAllocGate(t *testing.T) {
	var snap struct {
		Benchmarks []struct {
			Name       string
			Workers    int
			BytesPerOp int64 `json:"bytes_per_op"`
		}
	}
	if err := json.Unmarshal(readFile(t, "../BENCH_pipeline.json"), &snap); err != nil {
		t.Fatal(err)
	}
	var baseline int64
	for _, b := range snap.Benchmarks {
		if b.Name == "ScoreBatch" && b.Workers == 1 {
			baseline = b.BytesPerOp
		}
	}
	if baseline == 0 {
		t.Fatal("BENCH_pipeline.json has no ScoreBatch workers=1 entry")
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "BenchmarkScoreBatch$/workers=1$",
		"-benchmem", "-benchtime", "2x", "-cpu", "1", "-count", "1", ".")
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark: %v\n%s", err, out)
	}
	var measured int64 = -1
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "BenchmarkScoreBatch/workers=1" {
			continue
		}
		for i := 1; i < len(f); i++ {
			if f[i] == "B/op" {
				measured, _ = strconv.ParseInt(f[i-1], 10, 64)
			}
		}
	}
	if measured < 0 {
		t.Fatalf("no BenchmarkScoreBatch/workers=1 B/op in:\n%s", out)
	}
	t.Logf("ScoreBatch workers=1: %d B/op (baseline %d, limit %d)", measured, baseline, 2*baseline)
	if measured > 2*baseline {
		t.Fatalf("ScoreBatch workers=1 allocates %d B/op, more than 2x the committed %d; "+
			"refresh the snapshot (make snapshot) if the increase is intentional", measured, baseline)
	}
}
