package reswire

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/resd"
)

// startFlightServer is startServer with a flight journal and server-side
// wire metrics attached before Serve, returning both alongside the
// address.
func startFlightServer(t *testing.T, cfg resd.Config) (string, *flight.Journal, *Metrics) {
	t.Helper()
	svc, err := resd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	j := flight.NewJournal(64, nil)
	m := NewMetrics(obs.NewRegistry(), "server")
	srv.SetFlight(j)
	srv.SetMetrics(m)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close(); <-done })
	return ln.Addr().String(), j, m
}

// TestFlightJournalFrameError: a frame the server refuses — hostile
// bytes, or a well-formed frame from another protocol revision — closes
// the connection, journals exactly one reswire warning naming the cause,
// and counts one frame error.
func TestFlightJournalFrameError(t *testing.T) {
	// A well-formed length prefix framing garbage: decodes far enough to
	// fail on the magic, which is ErrFrame, not a closed socket.
	garbage := binary.BigEndian.AppendUint32(nil, 4)
	garbage = append(garbage, 0xde, 0xad, 0xbe, 0xef)
	// A valid Ping frame whose version byte names revision 4.
	stale, err := AppendRequest(nil, Request{ID: 1, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	stale[6] = 4 // version byte: after length prefix (4) + magic (2)

	for _, tc := range []struct {
		name  string
		frame []byte
		cause error
	}{
		{"bad_magic", garbage, ErrFrame},
		{"stale_version", stale, ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, j, m := startFlightServer(t, resd.Config{M: 8})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			// The server drops the connection; the read observing EOF
			// sequences us after its serveConn loop exited and journaled.
			var buf [1]byte
			if n, err := nc.Read(buf[:]); err == nil {
				t.Fatalf("server answered %d bytes instead of closing the connection", n)
			}
			if got := j.SubsysCount("reswire", flight.Warn); got != 1 {
				t.Fatalf("refused frame journaled %d warnings, want 1: %+v", got, j.Tail(0))
			}
			var cause string
			for _, ev := range j.Tail(0) {
				for _, kv := range ev.KV {
					if ev.Subsys == "reswire" && kv.K == "err" {
						cause = kv.V
					}
				}
			}
			if !strings.Contains(cause, tc.cause.Error()) {
				t.Fatalf("journaled err %q does not name %q", cause, tc.cause)
			}
			if got := m.frame.Value(); got != 1 {
				t.Fatalf("reswire_frame_errors_total = %d, want 1", got)
			}
		})
	}
}
