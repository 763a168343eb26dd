package cliflags

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, []byte("# every tenant removed\n\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full")
	if err := os.WriteFile(full, []byte("acme=k:4\n"), 0o600); err != nil {
		t.Fatal(err)
	}

	c := Common{TenantKeys: "acme=k", TenantKeysFile: full}
	if _, err := c.LoadTenants(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both tenant flags: err = %v, want mutually exclusive", err)
	}
	c = Common{TenantKeysFile: empty}
	if specs, err := c.LoadTenants(); err != nil || specs != nil {
		t.Errorf("file with no entries: specs=%v err=%v, want nil/nil (auth off)", specs, err)
	}
	c = Common{TenantKeysFile: full}
	if specs, err := c.LoadTenants(); err != nil || len(specs) != 1 || specs[0].MaxSessions != 4 {
		t.Errorf("file: specs=%+v err=%v", specs, err)
	}
	c = Common{TenantKeysFile: filepath.Join(dir, "missing")}
	if _, err := c.LoadTenants(); err == nil {
		t.Error("missing file accepted")
	}
	c = Common{}
	if specs, err := c.LoadTenants(); err != nil || specs != nil {
		t.Errorf("no flags: specs=%v err=%v, want nil/nil (auth off)", specs, err)
	}
}

// fakeService serves nothing: Serve blocks until Shutdown or Close.
type fakeService struct {
	serving chan struct{} // closed once Serve is running
	stop    chan struct{}
	once    sync.Once
	hang    bool // Shutdown outlasts any budget
}

func newFakeService(hang bool) *fakeService {
	return &fakeService{serving: make(chan struct{}), stop: make(chan struct{}), hang: hang}
}

func (f *fakeService) Serve(ln net.Listener) error {
	defer ln.Close()
	close(f.serving)
	<-f.stop
	return net.ErrClosed
}

func (f *fakeService) Shutdown(ctx context.Context) error {
	if f.hang {
		<-ctx.Done()
		return ctx.Err()
	}
	return f.Close()
}

func (f *fakeService) Close() error {
	f.once.Do(func() { close(f.stop) })
	return nil
}

func (f *fakeService) Handler() http.Handler { return http.NotFoundHandler() }

// logLines is a log destination that hands each line to the test.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	l <- string(p)
	return len(p), nil
}

// waitLog reads log lines until one contains want.
func waitLog(t *testing.T, lines logLines, want string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case line := <-lines:
			if strings.Contains(line, want) {
				return
			}
		case <-timeout:
			t.Fatalf("no log line containing %q", want)
		}
	}
}

// startRun runs c.Run over svc and returns the channels its log lines
// and exit code arrive on, once svc is serving. Only then may the test
// signal its own process: Run has caught SIGINT and SIGTERM by the time
// it calls Serve.
func startRun(t *testing.T, c *Common, svc *fakeService, apply func([]TenantSpec)) (logLines, chan int) {
	t.Helper()
	lines := make(logLines, 64)
	code := make(chan int, 1)
	go func() {
		code <- c.Run(svc, Daemon{Name: "test", Log: log.New(lines, "", 0), SetTenants: apply})
	}()
	select {
	case <-svc.serving:
	case <-time.After(10 * time.Second):
		t.Fatal("Run never called Serve")
	}
	return lines, code
}

func waitCode(t *testing.T, code chan int) int {
	t.Helper()
	select {
	case n := <-code:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
		return -1
	}
}

// TestRunReloadsTenantsOnSIGHUP: a SIGHUP applies the rewritten
// -tenant-keys-file, and one whose file no longer parses keeps the
// current table.
func TestRunReloadsTenantsOnSIGHUP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte("acme=k1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	applied := make(chan []TenantSpec, 4)
	c := &Common{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second, TenantKeysFile: path}
	lines, code := startRun(t, c, newFakeService(false), func(specs []TenantSpec) { applied <- specs })

	if err := os.WriteFile(path, []byte("acme=k2\nbeta=kb\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	syscall.Kill(os.Getpid(), syscall.SIGHUP)
	waitLog(t, lines, "tenant table reloaded (2 tenants)")
	select {
	case specs := <-applied:
		if len(specs) != 2 || specs[0].Key != "k2" || specs[1].Name != "beta" {
			t.Errorf("reload applied %+v, want acme=k2 and beta", specs)
		}
	default:
		t.Fatal("reload logged but never applied")
	}

	if err := os.WriteFile(path, []byte("acme\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	syscall.Kill(os.Getpid(), syscall.SIGHUP)
	waitLog(t, lines, "keeping current tenant table")
	if len(applied) != 0 {
		t.Errorf("a file that does not parse was applied: %+v", <-applied)
	}

	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	if n := waitCode(t, code); n != 0 {
		t.Errorf("exit code %d after a clean drain, want 0", n)
	}
}

// TestRunDrainExitCode: SIGTERM drains; a drain that finishes in its
// budget exits 0, and one that runs out of budget is cut off and exits 1.
func TestRunDrainExitCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		hang bool
		want int
		log  string
	}{
		{"clean", false, 0, "shut down"},
		{"over budget", true, 1, "drain incomplete"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newFakeService(tc.hang)
			c := &Common{Addr: "127.0.0.1:0", DrainTimeout: 50 * time.Millisecond}
			lines, code := startRun(t, c, svc, nil)
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
			if n := waitCode(t, code); n != tc.want {
				t.Errorf("exit code %d, want %d", n, tc.want)
			}
			waitLog(t, lines, tc.log)
		})
	}
}
