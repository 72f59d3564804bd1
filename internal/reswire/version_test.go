package reswire

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"repro/internal/resd"
	"repro/internal/tenant"
)

func mustRegistry(t *testing.T, capacity int64, spec tenant.Spec) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New(capacity, spec)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestV2ReserveCarriesTenant(t *testing.T) {
	req := Request{ID: 9, Op: OpReserve, Ready: 1, Procs: 2, Dur: 3, Deadline: resd.NoDeadline, Tenant: "acme"}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestHostileVersionsRejected(t *testing.T) {
	valid, err := AppendRequest(nil, Request{ID: 1, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	validResp, err := AppendResponse(nil, Response{ID: 1, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	// Revisions 1..4 once existed and are refused like any other byte:
	// there is one revision, and everything else is ErrVersion.
	for _, v := range []byte{0, 1, 2, 3, 4, 6, 7, 0x7F, 0xFF} {
		frame := bytes.Clone(valid)
		frame[6] = v // version byte: after length prefix (4) + magic (2)
		if _, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, ErrVersion) {
			t.Errorf("request version %d err = %v, want ErrVersion", v, err)
		}
		frame = bytes.Clone(validResp)
		frame[6] = v
		if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, ErrVersion) {
			t.Errorf("response version %d err = %v, want ErrVersion", v, err)
		}
	}
}

// TestQuotaOpsOverWire drives the v2 quota surface end to end: tenant-
// attributed Reserve, QuotaGet, QuotaSet, and a hard-mode rejection whose
// REJECTED_QUOTA code reconstructs tenant.ErrQuota client-side.
func TestQuotaOpsOverWire(t *testing.T) {
	reg := mustRegistry(t, 800, tenant.Spec{Tenants: []tenant.TenantSpec{{Name: "acme", Share: 0.1}}})
	addr, _ := startServer(t, resd.Config{M: 8, Quotas: reg})
	c := dial(t, addr, Options{Conns: 1, Pipeline: true})

	if _, err := c.Admit(resd.Request{Tenant: "acme", Ready: 0, Q: 8, Dur: 10, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
	q, err := c.QuotaGet("acme")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tenant != "acme" || q.Group != tenant.DefaultGroup || q.Used != 80 ||
		q.Budget != 80 || q.Capacity != 800 || q.Mode != tenant.Hard || q.Inflight != 1 {
		t.Fatalf("QuotaGet = %+v", q)
	}
	_, err = c.Admit(resd.Request{Tenant: "acme", Ready: 0, Q: 1, Dur: 1, Deadline: resd.NoDeadline})
	if !errors.Is(err, tenant.ErrQuota) || !errors.Is(err, resd.ErrQuota) {
		t.Fatalf("over-budget remote err = %v, want ErrQuota via errors.Is", err)
	}
	// Re-budget over the wire and retry.
	if err := c.QuotaSet("acme", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(resd.Request{Tenant: "acme", Ready: 0, Q: 1, Dur: 100, Deadline: resd.NoDeadline}); err != nil {
		t.Fatalf("post-QuotaSet reserve: %v", err)
	}
	// An out-of-range share never leaves the client: the encoder enforces
	// the protocol's (0,1] share range.
	if err := c.QuotaSet("acme", 1.5); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad share err = %v, want ErrFrame", err)
	}
}

func TestQuotaOpsWithoutRegistry(t *testing.T) {
	addr, _ := startServer(t, resd.Config{M: 8})
	c := dial(t, addr, Options{Conns: 1, Pipeline: false})
	if _, err := c.QuotaGet("acme"); !errors.Is(err, resd.ErrBadRequest) {
		t.Fatalf("QuotaGet on quota-less server err = %v, want resd.ErrBadRequest", err)
	}
	// Tenant-attributed Reserve still works: stats are kept, budgets just
	// never bind.
	if _, err := c.Admit(resd.Request{Tenant: "acme", Ready: 0, Q: 4, Dur: 10, Deadline: resd.NoDeadline}); err != nil {
		t.Fatal(err)
	}
}
