//go:build e2e

package e2e

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// fleet is a dvgateway fronting dvserve replicas.
type fleet struct {
	gw   *proc
	base string
}

// startFleet starts one dvgateway over the given replica specs with the
// fast probe settings both fleet scenarios use.
func startFleet(t *testing.T, replicas []string, extra ...string) fleet {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-probe-interval", "100ms", "-drain-after", "2",
		"-reinstate-after", "2", "-reprobe-backoff", "100ms", "-reprobe-backoff-cap", "500ms"}
	for _, r := range replicas {
		args = append(args, "-replica", r)
	}
	gw := start(t, nil, "dvgateway", append(args, extra...)...)
	return fleet{gw: gw, base: "http://" + gw.addr}
}

// replicas is the gateway's /admin/replicas fleet view.
func (f fleet) replicas() string {
	r, _ := send(f.base+"/admin/replicas", "")
	return r.body
}

func (f fleet) waitInRotation(t *testing.T, n int) {
	t.Helper()
	want := fmt.Sprintf(`"in_rotation":%d,`, n)
	waitFor(t, want, func() bool { return strings.Contains(f.replicas(), want) })
}

// onSHA counts the replicas reporting validator checksum sha.
func (f fleet) onSHA(sha string) int {
	return strings.Count(f.replicas(), `"validator_sha256":"`+sha+`"`)
}

func (f fleet) waitOnSHA(t *testing.T, sha string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d replicas on %.12s", n, sha), func() bool { return f.onSHA(sha) == n })
}

func (f fleet) check(t *testing.T, traceID string) reply {
	t.Helper()
	return do(t, f.base+"/v1/check", checkJSON, "X-DV-Trace-Id", traceID)
}

// checks sends n traced checks without judging them: route-path
// failures feed the gateway's health machine.
func (f fleet) checks(n int, prefix string) {
	for i := 1; i <= n; i++ {
		send(f.base+"/v1/check", checkJSON, "X-DV-Trace-Id", fmt.Sprintf("%s-%d", prefix, i))
	}
}

// drain SIGTERMs the gateway, which must exit 0 after a clean drain.
func (f fleet) drain(t *testing.T) {
	t.Helper()
	if err := f.gw.stop(syscall.SIGTERM); err != nil {
		t.Fatalf("dvgateway after SIGTERM: %v", err)
	}
	contains(t, "dvgateway stderr", f.gw.stderr(), "drained cleanly")
}

// testGateway drives a 2-replica fleet through routing, kill -9 and
// drain with zero client 5xx, reinstatement, a refused corrupt
// rollout, a halted rollout rolled back, and a converged retry.
func testGateway(t *testing.T) {
	v1, v2 := readFile(t, fx.validator), readFile(t, fx.validator2)
	if bytes.Equal(v1, v2) {
		t.Fatal("v1 and v2 validators are byte-identical; a rollout would be a no-op")
	}
	dir := t.TempDir()
	r1v := writeFile(t, filepath.Join(dir, "r1", "validator.gob"), v1)
	r2v := writeFile(t, filepath.Join(dir, "r2", "validator.gob"), v1)
	r1 := serve(t, nil, r1v, "127.0.0.1:0", "-eps", "0.5")
	r2 := serve(t, nil, r2v, "127.0.0.1:0", "-eps", "0.5")
	f := startFleet(t, []string{"r1@" + r1.addr + "=" + r1v, "r2@" + r2.addr + "=" + r2v})

	f.waitInRotation(t, 2)
	for i := 1; i <= 8; i++ {
		f.check(t, fmt.Sprintf("trace-%d", i)).want(t, 200, `"label"`)
	}
	v1SHA := match(t, "fleet view", f.replicas(), `"validator_sha256":"([0-9a-f]+)"`)
	if n := f.onSHA(v1SHA); n != 2 {
		t.Fatalf("%d replicas on the v1 checksum, want 2:\n%s", n, f.replicas())
	}

	r2.kill()
	f.checks(20, "kill")
	waitFor(t, "the killed replica to drain", func() bool { return strings.Contains(f.replicas(), `"state":"drained"`) })
	f.waitInRotation(t, 1)
	for i := 1; i <= 20; i++ {
		f.check(t, fmt.Sprintf("settled-%d", i)).want(t, 200)
	}

	r2 = serve(t, nil, r2v, r2.addr, "-eps", "0.5")
	f.waitInRotation(t, 2)
	f.check(t, "reinstated").want(t, 200)

	corrupt := append([]byte(nil), v2...)
	copy(corrupt[200:], "XX")
	corruptPath := writeFile(t, filepath.Join(dir, "corrupt.gob"), corrupt)
	do(t, f.base+"/admin/rollout", rolloutJSON(corruptPath)).want(t, 400)
	if n := f.onSHA(v1SHA); n != 2 {
		t.Fatalf("refused rollout changed the fleet view:\n%s", f.replicas())
	}
	sameFile(t, r1v, fx.validator)

	// With every reload on r2 failing, the rollout switches r1, halts
	// on r2, and must roll r1 back to the prior artifact.
	r2.kill()
	r2 = serve(t, []string{"DV_FAULT=serve.reload"}, r2v, r2.addr, "-eps", "0.5")
	f.waitInRotation(t, 2)
	do(t, f.base+"/admin/rollout", rolloutJSON(fx.validator2)).want(t, 500, "rolled back", `"rolled_back":true`)
	sameFile(t, r1v, fx.validator)
	sameFile(t, r2v, fx.validator)
	f.waitOnSHA(t, v1SHA, 2)

	r2.kill()
	serve(t, nil, r2v, r2.addr, "-eps", "0.5")
	f.waitInRotation(t, 2)
	body := do(t, f.base+"/admin/rollout", rolloutJSON(fx.validator2)).want(t, 200, `"completed":true`).body
	target := match(t, "rollout", body, `"target_sha256":"([0-9a-f]+)"`)
	if target == v1SHA {
		t.Fatalf("rollout target is the v1 checksum: %s", body)
	}
	f.waitOnSHA(t, target, 2)
	sameFile(t, r1v, fx.validator2)
	sameFile(t, r2v, fx.validator2)
	f.check(t, "converged").want(t, 200)
	f.drain(t)
}

// testFleetObs traces both tiers: one stitched two-tier span tree,
// fleet and flight aggregation, a kill -9 degrading the lookup to a
// marked partial tree, and a drained fleet breaching the gateway's
// availability objective with a resolvable cross-linked trace.
func testFleetObs(t *testing.T) {
	traced := []string{"-eps", "0.5", "-trace-sample", "1"}
	r1 := serve(t, nil, fx.validator, "127.0.0.1:0", traced...)
	r2 := serve(t, nil, fx.validator, "127.0.0.1:0", traced...)
	f := startFleet(t, []string{"r1@" + r1.addr, "r2@" + r2.addr}, "-trace-sample", "1", "-slo", "-slo-interval", "100ms")
	f.waitInRotation(t, 2)

	f.check(t, "e2e-stitch-1").want(t, 200)
	tree := do(t, f.base+"/debug/dv/trace/e2e-stitch-1", "").want(t, 200, `"partial":false`,
		`"name":"route"`, `"name":"upstream"`, `"name":"verdict"`, `"tier":"replica"`).body
	served := match(t, "stitched tree", tree, `"replica":"(r[12])"`)

	body := do(t, f.base+"/debug/dv/fleet", "").want(t, 200, `"partial":false`, `"gateway_slo":{"enabled":true`).body
	if n := strings.Count(body, `"fetch":"ok"`); n != 2 {
		t.Fatalf("fleet view has %d ok rows, want 2: %s", n, body)
	}
	do(t, f.base+"/debug/dv/flight?limit=5", "").want(t, 200, `"replica":"r`)

	victim := map[string]*proc{"r1": r1, "r2": r2}[served]
	victim.kill()
	do(t, f.base+"/debug/dv/trace/e2e-stitch-1", "").want(t, 200, `"partial":true`,
		`"state":"unreachable"`, `"name":"route"`)
	do(t, f.base+"/debug/dv/fleet", "").want(t, 200, `"partial":true`, `"fetch":"unreachable"`)

	// With both replicas gone every traced request sheds 503 and lands
	// in the SLO engine's cross-link ring.
	r1.kill()
	r2.kill()
	f.checks(20, "shed")
	f.waitInRotation(t, 0)
	for i := 1; i <= 5; i++ {
		f.check(t, fmt.Sprintf("breach-%d", i)).want(t, 503)
	}
	breaches := f.base + "/debug/dv/events?type=slo_breach&level=error"
	waitFor(t, "the availability breach event", func() bool {
		r, err := send(breaches, "")
		return err == nil && strings.Contains(r.body, `"slo":"availability"`)
	})
	linked := match(t, "breach event", do(t, breaches, "").body, `"trace_ids":\["([^"]+)"`)
	do(t, f.base+"/debug/dv/trace/"+linked, "").want(t, 200, `"id":"`+linked+`"`)
	contains(t, "readyz", do(t, f.base+"/readyz", "").body, "slo: BREACH")
	do(t, f.base+"/debug/dv/slo", "").want(t, 200, `"breaching":true`)
	f.drain(t)
}
