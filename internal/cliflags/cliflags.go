// Package cliflags is the single source of truth for the flag surface
// and the process lifecycle the wire-protocol binaries (raced,
// racedctl) share. Both register through it, so the shared knobs —
// -addr, -metrics, -idle-timeout, -drain-timeout, -tenant-keys,
// -tenant-keys-file, -v — spell, default, and document themselves
// identically in every binary; and both run through Common.Run, so they
// announce, reload and drain identically too. An operator who knows one
// front-end knows them all.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Default values for the shared flags. raced and racedctl differ only
// in their default listen address (passed to Register), never in these.
const (
	DefaultDrainTimeout = 10 * time.Second
)

// Common holds the parsed values of the flags every wire front-end
// shares.
type Common struct {
	// Addr is the wire-protocol listen address.
	Addr string
	// Metrics is the observability listen address ("" disables).
	Metrics string
	// IdleTimeout evicts sessions (raced) or proxied connections
	// (racedctl) idle this long (0 disables).
	IdleTimeout time.Duration
	// DrainTimeout bounds graceful shutdown before hard close.
	DrainTimeout time.Duration
	// Verbose enables lifecycle logging.
	Verbose bool
	// TenantKeys is the inline tenant table (-tenant-keys) and
	// TenantKeysFile the file holding one (-tenant-keys-file); at most
	// one may be set. LoadTenants reads whichever is.
	TenantKeys, TenantKeysFile string
}

// Register installs the shared flag set on fs. defaultAddr is the only
// per-binary degree of freedom (raced and racedctl listen on different
// well-known ports); everything else is identical by construction.
//
// raced uses -tenant-keys to require and verify tenant credentials;
// racedctl uses the same spelling to refuse bad credentials at the
// gateway edge before a backend connection is spent. -tenant-keys-file
// holds the same grammar in a file, so keys stay out of process
// listings and the table can be swapped live: Run re-reads it on
// SIGHUP, and raced's /admin/tenants PUT accepts the same format as its
// request body.
func Register(fs *flag.FlagSet, defaultAddr string, c *Common) {
	fs.StringVar(&c.Addr, "addr", defaultAddr, "session listen address")
	fs.StringVar(&c.Metrics, "metrics", "", "observability listen address for /healthz and /metrics (empty disables)")
	fs.DurationVar(&c.IdleTimeout, "idle-timeout", 0, "evict sessions idle this long (0 disables)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", DefaultDrainTimeout, "graceful shutdown budget before hard close")
	fs.BoolVar(&c.Verbose, "v", false, "log session lifecycle events")
	fs.StringVar(&c.TenantKeys, "tenant-keys", "",
		"require tenant auth: name=key[:maxSessions[:maxStoreBytes]],... (empty = no auth)")
	fs.StringVar(&c.TenantKeysFile, "tenant-keys-file", "",
		"file of tenant auth entries, one name=key[:maxSessions[:maxStoreBytes]] per line ('#' comments); reloaded on SIGHUP; mutually exclusive with -tenant-keys")
}

// TenantSpec is one parsed -tenant-keys entry. The quota fields are
// zero when the entry omitted them (zero = unlimited); only raced
// enforces quotas, racedctl ignores them and checks credentials alone.
type TenantSpec struct {
	// Name is the tenant identifier clients present as the left half of
	// their "name:key" auth token.
	Name string
	// Key is the shared secret (the right half of the auth token).
	Key string
	// MaxSessions caps the tenant's concurrent live sessions (0 = no cap).
	MaxSessions int
	// MaxStoreBytes caps the tenant's persisted report bytes (0 = no cap).
	MaxStoreBytes int64
}

// ParseTenantKeys decodes a -tenant-keys value: comma-separated
// name=key[:maxSessions[:maxStoreBytes]] entries. Names and keys must
// be non-empty; names must not contain ':' (the auth token separator),
// and keys registered here must not contain ':' or ',' (the flag's own
// separators). An empty spec parses to nil, meaning auth is off.
func ParseTenantKeys(spec string) ([]TenantSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []TenantSpec
	seen := make(map[string]bool)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, rest, ok := strings.Cut(item, "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("cliflags: -tenant-keys entry %q: want name=key[:maxSessions[:maxStoreBytes]]", item)
		}
		if strings.Contains(name, ":") {
			return nil, fmt.Errorf("cliflags: -tenant-keys tenant %q: name must not contain ':'", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("cliflags: -tenant-keys tenant %q listed twice", name)
		}
		seen[name] = true
		parts := strings.Split(rest, ":")
		t := TenantSpec{Name: name, Key: parts[0]}
		if t.Key == "" {
			return nil, fmt.Errorf("cliflags: -tenant-keys tenant %q: empty key", name)
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("cliflags: -tenant-keys entry %q: too many ':' fields", item)
		}
		if len(parts) >= 2 && parts[1] != "" {
			n, err := strconv.Atoi(parts[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("cliflags: -tenant-keys tenant %q: bad maxSessions %q", name, parts[1])
			}
			t.MaxSessions = n
		}
		if len(parts) == 3 && parts[2] != "" {
			n, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("cliflags: -tenant-keys tenant %q: bad maxStoreBytes %q", name, parts[2])
			}
			t.MaxStoreBytes = n
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliflags: -tenant-keys lists no tenants")
	}
	return out, nil
}

// ParseTenantKeysFile decodes the -tenant-keys-file format: the
// -tenant-keys grammar spread over lines — one or more
// name=key[:maxSessions[:maxStoreBytes]] entries per line (commas
// still work within a line), '#' starts a comment, blank lines are
// ignored. A file with no entries parses to nil, meaning auth is off:
// unlike the flag (where an empty value just means "flag unset"), an
// emptied file is an explicit operator statement.
func ParseTenantKeysFile(data []byte) ([]TenantSpec, error) {
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			entries = append(entries, line)
		}
	}
	if len(entries) == 0 {
		return nil, nil
	}
	return ParseTenantKeys(strings.Join(entries, ","))
}
