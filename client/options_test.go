package client

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// apply folds opts into an options the way Dial does (before
// normalization), failing the test on error.
func apply(t *testing.T, opts ...Option) options {
	t.Helper()
	var o options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			t.Fatalf("option returned %v", err)
		}
	}
	return o
}

// TestOptionValidation checks that every constructor rejects its
// documented invalid domain with an error naming the bad value.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string // substring of the error
	}{
		{"frame-zero", WithFrameEvents(0), "frame events"},
		{"frame-negative", WithFrameEvents(-5), "frame events"},
		{"dial-zero", WithDialTimeout(0), "dial timeout"},
		{"finish-negative", WithFinishTimeout(-time.Second), "finish timeout"},
		{"write-zero", WithWriteTimeout(0), "write timeout"},
		{"heartbeat-interval-zero", WithHeartbeat(0, 3), "heartbeat interval"},
		{"heartbeat-misses-zero", WithHeartbeat(time.Second, 0), "heartbeat misses"},
		{"attempts-zero", WithMaxAttempts(0), "max attempts"},
		{"backoff-base-zero", WithBackoff(0, time.Second), "backoff base"},
		{"backoff-max-below-base", WithBackoff(time.Second, time.Millisecond), "below base"},
		{"window-zero", WithReplayWindow(0), "replay window"},
		{"endpoints-none", WithEndpoints(), "at least one"},
		{"endpoints-empty-addr", WithEndpoints("a:1", ""), "empty address"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var o options
			err := c.opt(&o)
			if err == nil {
				t.Fatalf("want an error, got nil (options now %+v)", o)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestOptionConstructorsSetFields checks each constructor lands on its
// field of the resolved configuration.
func TestOptionConstructorsSetFields(t *testing.T) {
	got := apply(t,
		WithEngine("fasttrack"),
		WithFrameEvents(256),
		WithDialTimeout(3*time.Second),
		WithFinishTimeout(time.Minute),
		WithWriteTimeout(4*time.Second),
		WithHeartbeat(2*time.Second, 5),
		WithMaxAttempts(9),
		WithBackoff(10*time.Millisecond, 500*time.Millisecond),
		WithReplayWindow(32),
		WithRetainAll(),
		WithEndpoints("b:1", "c:2"),
		WithRouteKey(42),
		WithAuthToken("acme:k"),
	)
	want := options{
		Engine:            "fasttrack",
		EventsPerFrame:    256,
		DialTimeout:       3 * time.Second,
		FinishTimeout:     time.Minute,
		WriteTimeout:      4 * time.Second,
		HeartbeatInterval: 2 * time.Second,
		HeartbeatMisses:   5,
		MaxAttempts:       9,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        500 * time.Millisecond,
		WindowBatches:     32,
		RetainAll:         true,
		Endpoints:         []string{"b:1", "c:2"},
		RouteKey:          42,
		AuthToken:         "acme:k",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("options landed on\n%+v\nwant\n%+v", got, want)
	}
}

// TestNormalizedDefaults pins the documented default values.
func TestNormalizedDefaults(t *testing.T) {
	n, err := options{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.EventsPerFrame != DefaultFrameEvents {
		t.Errorf("EventsPerFrame = %d, want %d", n.EventsPerFrame, DefaultFrameEvents)
	}
	if n.WindowBatches != DefaultWindowBatches {
		t.Errorf("WindowBatches = %d, want %d", n.WindowBatches, DefaultWindowBatches)
	}
	if n.MaxAttempts != 5 || n.HeartbeatMisses != 3 {
		t.Errorf("retry defaults off: %+v", n)
	}
}

// TestWithoutHeartbeat pins the disable encoding: a negative interval
// survives normalization (it means "off").
func TestWithoutHeartbeat(t *testing.T) {
	o := apply(t, WithoutHeartbeat())
	n, err := o.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.HeartbeatInterval >= 0 {
		t.Errorf("HeartbeatInterval = %v, want negative (disabled)", n.HeartbeatInterval)
	}
}

// TestNormalizedRejectsEmptyEndpoint: normalization re-checks the
// endpoint list as a backstop behind WithEndpoints' own validation.
func TestNormalizedRejectsEmptyEndpoint(t *testing.T) {
	if _, err := (options{Endpoints: []string{"a:1", ""}}).normalized(); err == nil {
		t.Error("empty endpoint accepted")
	}
}

// TestNilOptionIgnored: Dial tolerates nil options (conditionally built
// option slices often carry one).
func TestNilOptionIgnored(t *testing.T) {
	// An unroutable address: if the nil option panicked we would never
	// get to the dial error.
	_, err := Dial("203.0.113.1:1", nil, WithMaxAttempts(1), WithDialTimeout(time.Millisecond), WithBackoff(time.Millisecond, time.Millisecond))
	if err == nil {
		t.Fatal("dial to a blackhole address somehow succeeded")
	}
	if !errors.Is(err, ErrPartial) && !strings.Contains(err.Error(), "dial") {
		t.Errorf("unexpected error class: %v", err)
	}
}
