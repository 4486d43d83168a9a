// Package e2e drives the built swarmfuzz and swarmfuzzd binaries as
// real processes: daemons on ephemeral ports, the CLI client against
// them, and byte-for-byte comparisons of the artifacts they write.
// TestMain builds both commands once; each test boots the daemons it
// needs and t.Cleanup reaps every child process.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"swarmfuzz/internal/serve"
)

// binDir holds the swarmfuzz and swarmfuzzd binaries TestMain built.
var binDir string

// sources are the package directories and Go files the two binaries
// build from. go test caches a result against the test binary and the
// files the tests themselves open or stat, and the binaries' main
// packages and the client package are not in the test binary: every
// test stats these (trackSources), so an edit to any of them reruns
// the package instead of reporting a stale pass.
var sources []string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swarmfuzz-e2e-")
	if err == nil {
		sources, err = listSources()
	}
	if err == nil {
		err = goBuild(dir, "swarmfuzz")
	}
	if err == nil {
		err = goBuild(dir, "swarmfuzzd")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// goBuild builds ./cmd/<name> into dir/<name> and returns the error
// with the compiler's output.
func goBuild(dir, name string, flags ...string) error {
	args := append(append([]string{"build"}, flags...), "-o", filepath.Join(dir, name), "swarmfuzz/cmd/"+name)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

func bin(name string) string { return filepath.Join(binDir, name) }

// listSources lists the directory and Go files of every module package
// the two commands build from.
func listSources() ([]string, error) {
	const tmpl = `{{if not .Standard}}{{.Dir}}{{range .GoFiles}}{{"\n"}}{{$.Dir}}/{{.}}{{end}}{{end}}`
	out, err := exec.Command("go", "list", "-deps", "-f", tmpl, "swarmfuzz/cmd/swarmfuzz", "swarmfuzz/cmd/swarmfuzzd").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var paths []string
	for _, p := range strings.Split(string(out), "\n") {
		if p != "" {
			paths = append(paths, p)
		}
	}
	return paths, nil
}

// trackSources stats every source the binaries build from. Stats made
// inside a test, unlike TestMain's, enter the result cache's key.
func trackSources() {
	for _, p := range sources {
		_, _ = os.Stat(p)
	}
}

// daemon is one running swarmfuzzd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // bound host:port; empty for `work`
	log    string // path of the captured stderr
	exited chan struct{}
	err    error // Wait's result, once exited is closed
}

// startDaemon runs `<exe> <sub> args...` with stderr captured to a
// file. For serve and coordinate it appends an ephemeral -addr and an
// -addr-file and waits up to 10 s for the bound address, failing at
// once if the process exits first. The process is killed and reaped in
// t.Cleanup; a failed test gets its stderr in the log.
func startDaemon(t *testing.T, exe, sub string, args ...string) *daemon {
	t.Helper()
	trackSources()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	if sub != "work" {
		args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	}
	d := &daemon{log: filepath.Join(dir, "stderr"), exited: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	d.cmd = exec.Command(exe, append([]string{sub}, args...)...)
	d.cmd.Stderr = logf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		d.kill()
		if t.Failed() {
			t.Logf("%s %s stderr:\n%s", filepath.Base(exe), sub, d.stderr())
		}
	})
	if sub == "work" {
		return d
	}
	deadline := time.After(10 * time.Second)
	for {
		// The file is written in one go, newline-terminated.
		if data, _ := os.ReadFile(addrFile); bytes.HasSuffix(data, []byte("\n")) {
			d.addr = strings.TrimSpace(string(data))
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("%s exited before listening (%v):\n%s", sub, d.err, d.stderr())
		case <-deadline:
			t.Fatalf("%s never wrote its address within 10s:\n%s", sub, d.stderr())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (d *daemon) stderr() string {
	data, _ := os.ReadFile(d.log)
	return string(data)
}

// stop sends SIGTERM and waits for the graceful exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	<-d.exited
}

// kill is kill -9 plus wait; a no-op on an exited process.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// run executes a built binary and returns its stdout, stderr and exit
// error.
func run(exe string, args ...string) (stdout, stderr string, err error) {
	trackSources()
	var out, errb bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// client runs `swarmfuzzd <sub> -addr <d.addr> args...` and returns
// its stdout, failing the test on a non-zero exit.
func (d *daemon) client(t *testing.T, sub string, args ...string) string {
	t.Helper()
	out, errOut, err := run(bin("swarmfuzzd"), append([]string{sub, "-addr", d.addr}, args...)...)
	if err != nil {
		t.Fatalf("swarmfuzzd %s %v: %v\nstdout:\n%s\nstderr:\n%s", sub, args, err, out, errOut)
	}
	return out
}

// submit submits a job from client flags and returns its id.
func (d *daemon) submit(t *testing.T, spec ...string) string {
	t.Helper()
	return strings.TrimSpace(d.client(t, "submit", spec...))
}

// waitDone waits for the job through the CLI and fails the test unless
// it finished done.
func (d *daemon) waitDone(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	var st serve.JobStatus
	out := d.client(t, "wait", id)
	if err := json.Unmarshal([]byte(out), &st); err != nil || st.State != serve.StateDone {
		t.Fatalf("job %s did not finish done (%v):\n%s", id, err, out)
	}
	return st
}

// get fetches url and returns the body, failing the test on a non-200
// answer.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if body := get(t, url); json.Unmarshal(body, v) != nil {
		t.Fatalf("GET %s: not JSON:\n%s", url, body)
	}
}

// metric returns the value of the unlabelled sample name in the
// Prometheus text exposition, 0 when absent.
func metric(t *testing.T, text []byte, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// checkWellFormed tokenises doc with the strict XML decoder: the XHTML
// pages must parse as XML, not just as tag soup a browser forgives.
func checkWellFormed(t *testing.T, doc []byte) {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for tokens := 0; ; tokens++ {
		_, err := dec.Token()
		if errors.Is(err, io.EOF) && tokens > 0 {
			return
		}
		if err != nil {
			t.Fatalf("page is not well-formed XML after %d tokens: %v", tokens, err)
		}
	}
}

// checkPopulatedCell requires a cell_end record in an atlas artifact
// and no cell aggregating zero missions.
func checkPopulatedCell(t *testing.T, artifact []byte) {
	t.Helper()
	found := false
	for _, line := range strings.Split(string(artifact), "\n") {
		if strings.Contains(line, `"type":"cell_end"`) {
			found = true
			if strings.Contains(line, `"missions":0`) {
				t.Fatalf("atlas cell aggregates zero missions: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("atlas artifact has no cell_end record:\n%s", artifact)
	}
}

// mustContain fails the test unless text holds every needle.
func mustContain(t *testing.T, what, text string, needles ...string) {
	t.Helper()
	for _, n := range needles {
		if !strings.Contains(text, n) {
			t.Fatalf("%s misses %q:\n%s", what, n, text)
		}
	}
}
