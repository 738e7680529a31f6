//go:build e2e

// Package e2e checks the deepvalidation binaries end to end as real
// processes. TestMain builds every binary once (dvserve and dvgateway
// with -race), trains one small model and fits the two validators the
// scenarios share; TestE2E then runs each scenario as a subtest. Run it
// with `make e2e` or `go test -tags e2e -count=1 ./e2e`.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// fx is what TestMain builds and trains once for every scenario.
var fx struct {
	bin        string // directory holding the built binaries
	model      string
	validator  string // -max-per-class 40: the validator every scenario serves
	validator2 string // -max-per-class 24: the gateway rollout target
	fitOut     string // stdout of the validator fit
}

// dataFlags regenerate the digits dataset the model was trained on;
// every CLI that reads the dataset must pass the same values.
var dataFlags = []string{"-dataset", "digits", "-train", "400", "-test", "100"}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dv-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if err := setup(dir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e setup:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func setup(dir string) error {
	fx.bin = dir
	for _, args := range [][]string{
		{"build", "-o", dir + "/", "./cmd/dvtrain", "./cmd/dvvalidate", "./cmd/dvhunt", "./cmd/dvreport"},
		{"build", "-race", "-o", dir + "/", "./cmd/dvserve", "./cmd/dvgateway"},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	fx.model = filepath.Join(dir, "model.gob")
	fx.validator = filepath.Join(dir, "validator.gob")
	fx.validator2 = filepath.Join(dir, "validator-v2.gob")
	_, err := execBin(nil, "dvtrain", append([]string{
		"-epochs", "6", "-width", "4", "-fc", "16", "-out", fx.model, "-quiet"}, dataFlags...)...)
	if err == nil {
		fx.fitOut, err = execBin(nil, "dvvalidate", fitArgs(fx.validator, "40", "-telemetry")...)
	}
	if err == nil {
		_, err = execBin(nil, "dvvalidate", fitArgs(fx.validator2, "24")...)
	}
	return err
}

// TestE2E runs every scenario against real processes. A failing
// scenario does not stop the ones after it.
func TestE2E(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"telemetry", testTelemetry},
		{"serve", testServe},
		{"chaos", testChaos},
		{"trace", testTrace},
		{"hunt", testHunt},
		{"obs", testObs},
		{"gateway", testGateway},
		{"fleet-obs", testFleetObs},
		{"alloc", testAllocGate},
	} {
		t.Run(sc.name, sc.run)
	}
}

// fitArgs is a `dvvalidate fit` command line writing to out.
func fitArgs(out, maxPerClass string, extra ...string) []string {
	args := append([]string{"fit", "-model", fx.model}, dataFlags...)
	args = append(args, "-max-per-class", maxPerClass, "-max-features", "64", "-out", out)
	return append(args, extra...)
}

func command(env []string, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(fx.bin, name), args...)
	cmd.Env = append(os.Environ(), env...)
	return cmd
}

// execBin runs a binary to completion and returns its stdout; a
// non-zero exit returns an error carrying its stderr.
func execBin(env []string, name string, args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	cmd := command(env, name, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return stdout.String(), fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}

func output(t *testing.T, env []string, name string, args ...string) string {
	t.Helper()
	out, err := execBin(env, name, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// proc is a long-running binary under test. Its stderr goes to a file
// the scenario can read; at cleanup the process is killed, any DATA
// RACE report in its stderr fails the test, and a failed test gets the
// log attached.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	addr string // from the "NAME: serving ... on http://ADDR" banner
	done chan struct{}
	err  error // exit status, set once done is closed
}

func launch(t *testing.T, env []string, name string, args ...string) *proc {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), name+"-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := &proc{name: name, cmd: command(env, name, args...), log: f.Name(), done: make(chan struct{})}
	p.cmd.Stderr = f
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		p.kill()
		if log := p.stderr(); strings.Contains(log, "WARNING: DATA RACE") {
			t.Errorf("%s reported a data race:\n%s", name, log)
		} else if t.Failed() {
			t.Logf("%s %s stderr:\n%s", name, strings.Join(args, " "), log)
		}
	})
	return p
}

// start launches a server binary and waits for its serving banner. A
// fixed address left bound by a kill -9'd process is retried.
func start(t *testing.T, env []string, name string, args ...string) *proc {
	t.Helper()
	for attempt := 0; ; attempt++ {
		p := launch(t, env, name, args...)
		addr, err := p.waitAddr(name)
		if err == nil {
			p.addr = addr
			return p
		}
		if attempt == 30 || !strings.Contains(p.stderr(), "address already in use") {
			t.Fatalf("%s: %v\n%s", name, err, p.stderr())
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// serve starts a race-built dvserve on the shared model.
func serve(t *testing.T, env []string, validator, addr string, extra ...string) *proc {
	t.Helper()
	args := []string{"-model", fx.model, "-validator", validator, "-addr", addr}
	return start(t, env, "dvserve", append(args, extra...)...)
}

func (p *proc) stderr() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

// waitAddr returns the address from the process's "PREFIX: serving
// ... on http://ADDR" stderr line.
func (p *proc) waitAddr(prefix string) (string, error) {
	re := regexp.MustCompile(`(?m)^` + prefix + `: serving .* on http://(\S+)$`)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if m := re.FindStringSubmatch(p.stderr()); m != nil {
			return m[1], nil
		}
		select {
		case <-p.done:
			return "", fmt.Errorf("exited before serving: %v", p.err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("no %q banner within 30s", prefix)
}

func (p *proc) mustAddr(t *testing.T, prefix string) string {
	t.Helper()
	addr, err := p.waitAddr(prefix)
	if err != nil {
		t.Fatalf("%s: %v\n%s", p.name, err, p.stderr())
	}
	return addr
}

// kill is kill -9: it returns once the process is gone.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// stop sends sig and returns the exit status.
func (p *proc) stop(sig os.Signal) error {
	p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
		return p.err
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s still running 60s after %v", p.name, sig)
	}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	url  string
	code int
	body string
	hdr  http.Header
}

var client = &http.Client{Timeout: 60 * time.Second}

// send POSTs body to url, or GETs url when body is empty; hdr holds
// header name/value pairs.
func send(url, body string, hdr ...string) (reply, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != "" {
		method, rd = http.MethodPost, strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{url: url, code: resp.StatusCode, body: strings.TrimSpace(string(b)), hdr: resp.Header}, err
}

func do(t *testing.T, url, body string, hdr ...string) reply {
	t.Helper()
	r, err := send(url, body, hdr...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// want fails the test unless the reply has the status code and body
// substrings.
func (r reply) want(t *testing.T, code int, subs ...string) reply {
	t.Helper()
	if r.code != code {
		t.Fatalf("%s: status %d, want %d: %s", r.url, r.code, code, r.body)
	}
	contains(t, r.url, r.body, subs...)
	return r
}

func contains(t *testing.T, what, s string, subs ...string) {
	t.Helper()
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			t.Fatalf("%s lacks %q:\n%s", what, sub, s)
		}
	}
}

// match returns the first submatch of re in s, failing when absent.
func match(t *testing.T, what, s, re string) string {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("%s does not match %s:\n%s", what, re, s)
	}
	return m[len(m)-1]
}

// metric returns the value of the exposition line `name value`.
func metric(t *testing.T, text, name string) float64 {
	t.Helper()
	var v float64
	s := match(t, name, text, `(?m)^`+regexp.QuoteMeta(name)+` (\S+)$`)
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// waitFor polls cond until it holds, failing after 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// burst starts n clients together, each sending the same request
// rounds times, and counts the status codes (-1 for transport errors);
// retryAfter counts 429s carrying a Retry-After header.
func burst(n, rounds int, url, body string) (codes map[int]int, retryAfter int) {
	codes = map[int]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			for j := 0; j < rounds; j++ {
				r, err := send(url, body)
				mu.Lock()
				if err != nil {
					r.code = -1
				}
				codes[r.code]++
				if r.code == http.StatusTooManyRequests && r.hdr.Get("Retry-After") != "" {
					retryAfter++
				}
				mu.Unlock()
			}
		}()
	}
	close(gate)
	wg.Wait()
	return codes, retryAfter
}

// image is a request body for one all-zero digits image.
func image(h, w int) string {
	px := strings.TrimSuffix(strings.Repeat("0,", h*w), ",")
	return fmt.Sprintf(`{"channels":1,"height":%d,"width":%d,"pixels":[%s]}`, h, w, px)
}

var checkJSON = image(28, 28)

func batchJSON(n int) string {
	return `{"images":[` + strings.TrimSuffix(strings.Repeat(checkJSON+",", n), ",") + `]}`
}

// rolloutJSON is an /admin/rollout body staging artifact.
func rolloutJSON(artifact string) string {
	b, _ := json.Marshal(map[string]string{"artifact": artifact})
	return string(b)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path string, b []byte) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameFile fails unless the file at path holds exactly want's bytes.
func sameFile(t *testing.T, path, want string) {
	t.Helper()
	if !bytes.Equal(readFile(t, path), readFile(t, want)) {
		t.Fatalf("%s differs from %s", path, want)
	}
}

// wantMagic fails unless path is a checksummed artifact container.
func wantMagic(t *testing.T, path string) {
	t.Helper()
	if b := readFile(t, path); !bytes.HasPrefix(b, []byte("DVARTFC1")) {
		t.Fatalf("%s lacks the DVARTFC1 container magic", path)
	}
}
