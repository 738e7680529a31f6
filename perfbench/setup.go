package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"deepvalidation"
	"deepvalidation/internal/artifact"
	"deepvalidation/internal/core"
	"deepvalidation/internal/corner"
	"deepvalidation/internal/dataset"
	"deepvalidation/internal/hunt"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// The deployed detector. Its training and calibration images come from
// a fixed dataset seed, so every workload seed scores the same model
// at the same ε, and a change of model bits (see the recorded SHA-256s)
// reads as a program change, not as traffic. The sizes keep one Build
// near five seconds on a 2-CPU host while training every class.
const (
	trainSeed   = 1
	trainN      = 512
	buildEpochs = 6
	buildWidth  = 6
	buildFC     = 32
	svmPerClass = 40
	svmFeatures = 128
	buildSeed   = 1
	calibrateN  = 256
	calibFPR    = 0.05
)

// The traffic drawn from the workload seed: poolN test images, half
// clean and half corner-transformed, shared by every workload, and
// huntSeedsN correctly classified seeds for the hunt.
const (
	poolN      = 512
	huntSeedsN = 8
)

// env is one set-up detector and the traffic it is measured on.
type env struct {
	seed       int64
	modelPath  string
	valPath    string
	det        *deepvalidation.Detector // loaded back from modelPath/valPath
	eps        float64
	net        *nn.Network // the same artifacts, for the layer-level calls
	val        *core.Validator
	modelSHA   string
	valSHA     string
	pool       []deepvalidation.Image
	poolT      []*tensor.Tensor
	huntSeeds  []*tensor.Tensor
	huntLabels []int
	trainX     []*tensor.Tensor
	trainY     []int
	fleet      *fleet
}

func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
		e.fleet = nil
	}
}

func images(ts []*tensor.Tensor) []deepvalidation.Image {
	out := make([]deepvalidation.Image, len(ts))
	for i, t := range ts {
		out[i] = deepvalidation.Image{Channels: t.Shape[0], Height: t.Shape[1], Width: t.Shape[2], Pixels: t.Data}
	}
	return out
}

func buildConfig() deepvalidation.BuildConfig {
	return deepvalidation.BuildConfig{
		Classes: 10, Epochs: buildEpochs, Width: buildWidth, FCWidth: buildFC,
		SVMPerClass: svmPerClass, SVMFeatures: svmFeatures, Seed: buildSeed,
	}
}

// setup generates the inputs, builds, calibrates and round-trips the
// detector through Save/Load, the path dvserve loads from. When b is
// non-nil each stage is recorded as a span under a "setup" root.
func setup(seed int64, dir string, b *spanBuf, names map[string]int32) (*env, error) {
	stage := func(name string, parent int32, fn func() error) error {
		if b == nil {
			return fn()
		}
		i := b.begin(names[name], parent)
		err := fn()
		b.end(i)
		return err
	}
	root := int32(-1)
	if b != nil {
		root = b.begin(names["setup"], -1)
		defer b.end(root)
	}
	e := &env{seed: seed,
		modelPath: filepath.Join(dir, "model.dvart"), valPath: filepath.Join(dir, "validator.dvart")}

	var train, traffic *dataset.Dataset
	err := stage("dataset", root, func() error {
		train = dataset.Digits(dataset.Config{TrainN: trainN, TestN: calibrateN, Seed: trainSeed})
		traffic = dataset.Digits(dataset.Config{TestN: 2 * poolN, Seed: seed})
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.trainX, e.trainY = train.TrainX, train.TrainY
	var det *deepvalidation.Detector
	if err := stage("build", root, func() (err error) {
		det, err = deepvalidation.Build(images(train.TrainX), train.TrainY, buildConfig())
		return err
	}); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	calib := images(train.TestX)
	if err := stage("calibrate", root, func() (err error) {
		e.eps, err = det.Calibrate(calib, calibFPR)
		return err
	}); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	if err := stage("save", root, func() error { return det.Save(e.modelPath, e.valPath) }); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	if err := stage("load", root, func() (err error) {
		e.det, err = deepvalidation.Load(e.modelPath, e.valPath)
		return err
	}); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	e.det.SetEpsilon(e.eps)
	// The loaded pair must calibrate to the same threshold as the built
	// one: a cheap bit-level check of the Save/Load round trip.
	if eps, err := e.det.Calibrate(calib, calibFPR); err != nil || eps != e.eps {
		return nil, fmt.Errorf("loaded detector calibrates to %v (err %v), built one to %v", eps, err, e.eps)
	}

	if e.net, err = nn.Load(e.modelPath); err != nil {
		return nil, err
	}
	if e.val, err = core.LoadValidator(e.valPath); err != nil {
		return nil, err
	}
	for _, p := range [][2]*string{{&e.modelPath, &e.modelSHA}, {&e.valPath, &e.valSHA}} {
		h, err := artifact.ReadHeader(*p[0])
		if err != nil {
			return nil, err
		}
		*p[1] = h.Header.PayloadSHA256
	}

	// Traffic: clean test images, and the same number of test images
	// under one seeded corner transform each.
	rest, restY := traffic.TestX, traffic.TestY
	rng := rand.New(rand.NewSource(seed))
	spaces := corner.Spaces(true, rest[0].Shape[1], rest[0].Shape[2])
	mut := &hunt.Mutator{Spaces: spaces, MaxStages: 3}
	e.poolT = make([]*tensor.Tensor, 0, poolN)
	for i := 0; i < poolN/2; i++ {
		e.poolT = append(e.poolT, rest[i])
	}
	for i := poolN / 2; i < poolN; i++ {
		tr, err := mut.Mutate(mut.Random(rng), rng).Materialize(spaces)
		if err != nil {
			return nil, err
		}
		e.poolT = append(e.poolT, tr.Apply(rest[i]))
	}
	rng.Shuffle(len(e.poolT), func(i, j int) { e.poolT[i], e.poolT[j] = e.poolT[j], e.poolT[i] })
	e.pool = images(e.poolT)
	e.huntSeeds, e.huntLabels, err = corner.SelectSeeds(e.net, rest[poolN:], restY[poolN:], huntSeedsN, rng)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// supportVectors counts the validator's support vectors over every
// (layer, class) SVM.
func supportVectors(v *core.Validator) int {
	n := 0
	for _, row := range v.SVMs {
		for _, m := range row {
			n += m.NumSupport()
		}
	}
	return n
}

// cpuFlags reports AVX2 and AVX-512F support from /proc/cpuinfo; both
// are false where the file is unreadable.
func cpuFlags() (avx2, avx512 bool) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		for _, f := range strings.Fields(line) {
			avx2 = avx2 || f == "avx2"
			avx512 = avx512 || f == "avx512f"
		}
		break
	}
	return avx2, avx512
}

// meta is the per-run metadata printed before the result.
func (e *env) meta(workload string, trace bool) map[string]any {
	avx2, avx512 := cpuFlags()
	return map[string]any{
		"workload": workload, "seed": e.seed, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"avx2": avx2, "avx512f": avx512,
		"model_sha256": e.modelSHA, "validator_sha256": e.valSHA,
		"support_vectors": supportVectors(e.val), "epsilon": e.eps,
	}
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
