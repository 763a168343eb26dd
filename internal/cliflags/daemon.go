package cliflags

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// Service is what a wire front-end serves: raced's *server.Server and
// racedctl's *cluster.Gateway.
type Service interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	Close() error
	Handler() http.Handler
}

// Daemon is what one front-end adds to the shared lifecycle.
type Daemon struct {
	// Name prefixes the stdout announcements ("raced: listening on …").
	Name string
	// Log receives the lifecycle lines.
	Log *log.Logger
	// Wrap, when non-nil, wraps the session listener before it is
	// announced (raced's -chaos fault injector).
	Wrap func(net.Listener) net.Listener
	// Notes are extra stdout lines announced after the listen address.
	Notes []string
	// SetTenants applies the table -tenant-keys-file holds after a
	// SIGHUP re-read; nil specs turn auth off.
	SetTenants func([]TenantSpec)
}

// LoadTenants reads the tenant table the -tenant-keys or
// -tenant-keys-file flag names. Nil specs mean auth is off.
func (c *Common) LoadTenants() ([]TenantSpec, error) {
	if c.TenantKeys != "" && c.TenantKeysFile != "" {
		return nil, errors.New("-tenant-keys and -tenant-keys-file are mutually exclusive")
	}
	if c.TenantKeysFile != "" {
		return readTenantsFile(c.TenantKeysFile)
	}
	return ParseTenantKeys(c.TenantKeys)
}

func readTenantsFile(path string) ([]TenantSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTenantKeysFile(data)
}

// Run serves svc on the -addr listener until SIGINT or SIGTERM, then
// drains it within -drain-timeout. It announces the session address
// (":0" picks a free port), d.Notes and the -metrics address on stdout,
// so scripts can find them, and serves svc.Handler on -metrics. With
// -tenant-keys-file, each SIGHUP re-reads the file into d.SetTenants:
// rotated keys and revoked tenants apply to the next handshake, no
// restart. A file that cannot be read or parsed is logged and leaves
// the current table in place.
//
// Run returns the process exit code: 0 after a drain that finished in
// its budget, 1 when the drain ran out of budget and the rest was cut
// off, and 2 when a listener could not be opened or Serve failed.
func (c *Common) Run(svc Service, d Daemon) int {
	hupc := make(chan os.Signal, 1)
	if c.TenantKeysFile != "" {
		signal.Notify(hupc, syscall.SIGHUP)
		defer signal.Stop(hupc)
	}
	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		d.Log.Print(err)
		return 2
	}
	if d.Wrap != nil {
		ln = d.Wrap(ln)
	}
	fmt.Printf("%s: listening on %s\n", d.Name, ln.Addr())
	for _, note := range d.Notes {
		fmt.Printf("%s: %s\n", d.Name, note)
	}
	os.Stdout.Sync()

	if c.Metrics != "" {
		mln, err := net.Listen("tcp", c.Metrics)
		if err != nil {
			ln.Close()
			d.Log.Print(err)
			return 2
		}
		fmt.Printf("%s: metrics on http://%s\n", d.Name, mln.Addr())
		obsSrv := &http.Server{Handler: svc.Handler()}
		go obsSrv.Serve(mln)
		defer obsSrv.Close()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	served := make(chan error, 1)
	go func() { served <- svc.Serve(ln) }()
	var sig os.Signal
	for sig == nil {
		select {
		case err := <-served:
			d.Log.Print(err)
			return 2
		case <-hupc:
			if specs, err := readTenantsFile(c.TenantKeysFile); err != nil {
				d.Log.Printf("SIGHUP: %v (keeping current tenant table)", err)
			} else {
				d.SetTenants(specs)
				d.Log.Printf("SIGHUP: tenant table reloaded (%d tenants)", len(specs))
			}
		case sig = <-sigc:
		}
	}
	d.Log.Printf("%v: draining (%v budget)", sig, c.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), c.DrainTimeout)
	defer cancel()
	code := 0
	if err := svc.Shutdown(ctx); err != nil {
		d.Log.Printf("drain incomplete: %v", err)
		svc.Close()
		code = 1
	}
	<-served
	d.Log.Print("shut down")
	return code
}
