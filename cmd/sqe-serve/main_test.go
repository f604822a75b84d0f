package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	sqe "repro"
	"repro/internal/serve"
)

// proc is one sqe-serve child process and the address it bound.
type proc struct {
	cmd  *exec.Cmd
	addr string
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// start runs the built binary with args on an ephemeral port, waits for
// its "LISTEN <addr>" line and kills it when the test ends. The child's
// log is shown only if the test fails.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("sqe-serve %s:\n%s", strings.Join(args, " "), stderr.String())
		}
	})
	addrc := make(chan string, 1)
	go func() {
		defer close(addrc)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
				addrc <- a
				return
			}
		}
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			t.Fatalf("sqe-serve %v exited before listening", args)
		}
		p.addr = a
	case <-time.After(2 * time.Minute):
		t.Fatalf("sqe-serve %v never printed its listen address", args)
	}
	return p
}

// reply is one HTTP answer with the per-request timing field dropped, so
// two replies to the same request compare equal when everything a client
// can rely on — names, scores, ranks, degradation — is identical.
type reply struct {
	status   int
	degraded string // the X-SQE-Degraded header
	body     map[string]any
	raw      []byte
}

func decodeReply(t *testing.T, status int, hdr http.Header, body []byte) reply {
	t.Helper()
	r := reply{status: status, degraded: hdr.Get(serve.DegradedHeader), raw: body}
	if err := json.Unmarshal(body, &r.body); err != nil {
		t.Fatalf("HTTP %d with a non-JSON body: %v\n%s", status, err, body)
	}
	delete(r.body, "took_ms")
	return r
}

// TestMultiProcessServing drives every -mode through main as real
// processes: two shards (shard 0 with two replicas) behind a coordinator
// process. Over HTTP the coordinator must answer every demo query exactly
// as an in-process WithShards(2) engine does; stay exact when a
// redundant replica dies; and degrade — 200, header and body naming the
// dropped shard — when a shard has no server left. A second topology
// serves the same answers from an mmap'd index file written by
// -write-index, as does -mode serve over that file. Every demo query is
// asked three ways: SQE_C with its manual entities, as free text for the
// linker, and as the baseline.
func TestMultiProcessServing(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sqe-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ref, err := sqe.GenerateDemo(sqe.DemoSmall, sqe.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	oracle := serve.New(serve.Config{Engine: ref.Engine})
	var targets []string
	var want []reply // the in-process answer to each target
	for _, q := range ref.Queries {
		for _, target := range []string{
			"/v1/search?q=" + url.QueryEscape(q.Text) + "&entities=" + url.QueryEscape(strings.Join(q.EntityTitles, ",")) + "&k=10",
			"/v1/baseline?q=" + url.QueryEscape(q.Text) + "&k=10",
			// Free text: the demo linker picks the entities.
			"/v1/search?q=" + url.QueryEscape(q.Text) + "&k=10",
		} {
			w := httptest.NewRecorder()
			oracle.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("in-process %s: status %d: %s", target, w.Code, w.Body.String())
			}
			targets = append(targets, target)
			want = append(want, decodeReply(t, w.Code, w.Header(), w.Body.Bytes()))
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(p *proc, target string) reply {
		t.Helper()
		resp, err := client.Get("http://" + p.addr + target)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return decodeReply(t, resp.StatusCode, resp.Header, body)
	}
	sameAsOracle := func(leg string, p *proc) {
		t.Helper()
		for i, target := range targets {
			if got := get(p, target); got.status != want[i].status || got.degraded != "" || !reflect.DeepEqual(got.body, want[i].body) {
				t.Fatalf("%s: %s\nprocess:    %d %q %s\nin-process: %s", leg, target, got.status, got.degraded, got.raw, want[i].raw)
			}
		}
	}

	a := start(t, bin, "-mode", "shard", "-shard", "0/2")
	a2 := start(t, bin, "-mode", "shard", "-shard", "0/2")
	b := start(t, bin, "-mode", "shard", "-shard", "1/2")
	coord := start(t, bin, "-mode", "coordinator", "-shards", a.addr+"|"+a2.addr+","+b.addr)
	sameAsOracle("all shards up", coord)

	a.kill()
	sameAsOracle("one replica of shard 0 killed", coord)

	b.kill()
	for _, target := range targets[:2] {
		got := get(coord, target)
		if got.status != http.StatusOK || !strings.Contains(got.degraded, "shards=") {
			t.Fatalf("shard 1 dead: %s: status %d, %s %q", target, got.status, serve.DegradedHeader, got.degraded)
		}
		var body struct {
			Results  []json.RawMessage `json:"results"`
			Degraded sqe.Degradation   `json:"degraded"`
		}
		if err := json.Unmarshal(got.raw, &body); err != nil || len(body.Results) == 0 || len(body.Degraded.DroppedShards) == 0 {
			t.Fatalf("shard 1 dead: %s: want results from the surviving shard and a degraded field (%v): %s", target, err, got.raw)
		}
		// SQE_C drops the shard once per run, the baseline once.
		for i, sh := range body.Degraded.DroppedShards {
			if sh != 1 || !strings.HasPrefix(body.Degraded.ShardErrors[i], "stats phase: ") {
				t.Fatalf("shard 1 dead: %s: dropped %v with %q, want shard 1 excluded at the stats phase",
					target, body.Degraded.DroppedShards, body.Degraded.ShardErrors)
			}
		}
	}

	v2 := filepath.Join(t.TempDir(), "index.v2")
	if out, err := exec.Command(bin, "-write-index", v2).CombinedOutput(); err != nil {
		t.Fatalf("-write-index: %v\n%s", err, out)
	}
	c := start(t, bin, "-mode", "shard", "-shard", "0/2", "-index", v2)
	d := start(t, bin, "-mode", "shard", "-shard", "1/2", "-index", v2)
	sameAsOracle("shards over the v2 file", start(t, bin, "-mode", "coordinator", "-shards", c.addr+","+d.addr))
	sameAsOracle("-mode serve over the v2 file", start(t, bin, "-shards", "2", "-index", v2))
}
