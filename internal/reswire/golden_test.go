package reswire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/resd"
	"repro/internal/slo"
	"repro/internal/tenant"
)

// The golden frames below are canned wire bytes: one request per op, one
// OK response per op and one error response. They are the protocol's
// reference — an encoder change that moves a single byte fails here,
// whatever the round-trip tests say. There is no regeneration flag: a
// deliberate format change rewrites the table by hand, which is the
// point.

var goldenStats = []resd.ShardStats{
	{Active: 3, CommittedArea: 4000, Admitted: 10, Cancelled: 2, Rejected: 1, RejectedDeadline: 4,
		RejectedQuota: 5, MigratedIn: 6, MigratedOut: 7, SlackP99: 120, Batches: 8, Ops: 30},
	{Active: 1, CommittedArea: 512, Admitted: 11, Cancelled: 9, RejectedDeadline: 2,
		MigratedIn: 7, MigratedOut: 6, SlackP99: 64, Batches: 5, Ops: 22},
}

var goldenRequests = []struct {
	name string
	req  Request
	hex  string
}{
	{"Reserve", Request{ID: 1, Op: OpReserve, Ready: 100, Procs: 8, Dur: 50, Deadline: 400, Tenant: "acme", Stamp: 1700000000000000000, Traced: true},
		"00000036525705010000000000000001000000000000006400000008000000000000003200000000000001900461636d" +
			"6517979cfe362a000001"},
	{"Cancel", Request{ID: 2, Op: OpCancel, Resv: 0x0001000000000007},
		"000000145257050200000000000000020001000000000007"},
	{"Query", Request{ID: 3, Op: OpQuery, Ready: 250},
		"0000001452570503000000000000000300000000000000fa"},
	{"Snapshot", Request{ID: 4, Op: OpSnapshot, Shard: 3},
		"0000001052570504000000000000000400000003"},
	{"Ping", Request{ID: 5, Op: OpPing},
		"0000000c525705050000000000000005"},
	{"Stats", Request{ID: 6, Op: OpStats},
		"0000000c525705060000000000000006"},
	{"QuotaGet", Request{ID: 7, Op: OpQuotaGet, Tenant: "acme"},
		"000000115257050700000000000000070461636d65"},
	{"QuotaSet", Request{ID: 8, Op: OpQuotaSet, Tenant: "acme", Share: 0.25},
		"000000195257050800000000000000080461636d653fd0000000000000"},
	{"Trace", Request{ID: 9, Op: OpTrace, Limit: 16},
		"0000001052570509000000000000000900000010"},
	{"Watch", Request{ID: 10, Op: OpWatch, Interval: 250 * time.Millisecond, Mask: WatchAll},
		"000000185257050a000000000000000a000000000ee6b2800000001f"},
}

var goldenResponses = []struct {
	name string
	resp Response
	hex  string
}{
	{"Reserve", Response{ID: 1, Op: OpReserve, Resv: resd.Reservation{ID: 0x0001000000000007, Shard: 1, Start: 120, Dur: 50, Procs: 8}},
		"0000002d5257050100000000000000010000010000000000070000000100000000000000780000000000000032000000" +
			"08"},
	{"Cancel", Response{ID: 2, Op: OpCancel},
		"0000000d52570502000000000000000200"},
	{"Query", Response{ID: 3, Op: OpQuery, Free: []int{12, 0, 64}},
		"0000001d52570503000000000000000300000000030000000c0000000000000040"},
	{"Snapshot", Response{ID: 4, Op: OpSnapshot, M: 64, Segs: []Segment{{Start: 0, Free: 40}, {Start: 120, Free: 64}}},
		"0000002d5257050400000000000000040000000040000000020000000000000000000000280000000000000078000000" +
			"40"},
	{"Ping", Response{ID: 5, Op: OpPing},
		"0000000d52570505000000000000000500"},
	{"Stats", Response{ID: 6, Op: OpStats, Stats: goldenStats},
		"000000d1525705060000000000000006000000000200000000000000030000000000000fa0000000000000000a000000" +
			"000000000200000000000000010000000000000004000000000000000500000000000000060000000000000007000000" +
			"00000000780000000000000008000000000000001e00000000000000010000000000000200000000000000000b000000" +
			"000000000900000000000000000000000000000002000000000000000000000000000000070000000000000006000000" +
			"000000004000000000000000050000000000000016"},
	{"QuotaGet", Response{ID: 7, Op: OpQuotaGet, Quota: QuotaInfo{Tenant: "acme", Group: "batch", Mode: tenant.Soft, Share: 0.25,
		Capacity: 1 << 20, Budget: 1 << 18, Used: 1000, Inflight: 200, Admitted: 9, Cancelled: 3, Rejected: 2}},
		"00000059525705070000000000000007000461636d65056261746368013fd00000000000000000000000100000000000" +
			"000004000000000000000003e800000000000000c8000000000000000900000000000000030000000000000002"},
	{"QuotaSet", Response{ID: 8, Op: OpQuotaSet},
		"0000000d52570508000000000000000800"},
	{"Trace", Response{ID: 9, Op: OpTrace, Traces: []resd.TraceRecord{
		{Seq: 41, Tenant: "acme", Shard: 2, Outcome: resd.TraceAdmitted, Start: 120, Arrival: time.Unix(0, 1700000000123456789),
			ClientSend: 35 * time.Microsecond, Route: 2 * time.Microsecond, Enqueue: 3 * time.Microsecond,
			BatchStart: 9 * time.Microsecond, Decision: 14 * time.Microsecond},
		{Seq: 42, Shard: -1, Outcome: resd.TraceRejectedDeadline, Arrival: time.Unix(0, 1700000000223456789),
			Route: 1 * time.Microsecond, Enqueue: 2 * time.Microsecond, BatchStart: 4 * time.Microsecond, Decision: 7 * time.Microsecond},
	}},
		"000000a15257050900000000000000090000000002000000000000002917979cfe3d85cd1500000000000088b8000000" +
			"00000007d00000000000000bb8000000000000232800000000000036b0000000000000007800000002000461636d6500" +
			"0000000000002a17979cfe437bae15000000000000000000000000000003e800000000000007d00000000000000fa000" +
			"00000000001b580000000000000000ffffffff0200"},
	{"Watch", Response{ID: 10, Op: OpWatch, Telemetry: &Telemetry{
		Seq: 7, Dropped: 2, Mask: WatchAll, M: 64, Floor: 16,
		Queue:  []int{3, 0},
		Shards: goldenStats,
		Tenants: []TenantTelemetry{
			{Tenant: "acme", Budget: 1 << 18, Used: 1000, Inflight: 200},
			{Tenant: "", Budget: 1 << 19},
		},
		WAL: []resd.WALShardStats{
			{Shard: 0, Gen: 3, Bytes: 8192, Records: 120, Fsyncs: 40, Snapshots: 2, FsyncP99: 1500000},
			{Shard: 1, Gen: 1, Bytes: 4096, Records: 60, Fsyncs: 20, FsyncP99: 900000, Failed: 1},
		},
		TracesSampled: 1234, TracesSlow: 5,
		SLO: []slo.State{{Name: "deadline", Tenant: "acme", Signal: slo.DeadlineAttainment, Target: 0.99,
			Attainment: 0.995, BudgetRemaining: 0.5, BurnMax: 0.5, Severity: slo.SevWarn}},
	}},
		"000001ef5257050a000000000000000a00000000000000000700000000000000020000001f0000004000000010000000" +
			"020000000300000000000000030000000000000fa0000000000000000a00000000000000020000000000000001000000" +
			"000000000400000000000000050000000000000006000000000000000700000000000000780000000000000008000000" +
			"000000001e0000000000000000000000010000000000000200000000000000000b000000000000000900000000000000" +
			"000000000000000002000000000000000000000000000000070000000000000006000000000000004000000000000000" +
			"050000000000000016000000020461636d65000000000004000000000000000003e800000000000000c8000000000000" +
			"080000000000000000000000000000000000000000000200000000000000000000000300000000000020000000000000" +
			"00007800000000000000280000000000000002000000000016e360000000000000000000000001000000000000000100" +
			"00000000001000000000000000003c0000000000000014000000000000000000000000000dbba0000000000000000100" +
			"000000000004d200000000000000050000000108646561646c696e650461636d65003fefae147ae147ae3fefd70a3d70" +
			"a3d73fe00000000000003fe000000000000001"},
	{"RejectedQuota", Response{ID: 11, Op: OpReserve, Code: CodeRejectedQuota, Detail: "tenant acme over budget"},
		"0000002652570501000000000000000b07001774656e616e742061636d65206f76657220627564676574"},
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenFrames checks both directions against the canned bytes:
// encoding the value gives exactly the golden frame, and decoding the
// golden frame gives back exactly the value.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenRequests {
		t.Run("request/"+g.name, func(t *testing.T) {
			want := mustHex(t, g.hex)
			got, err := AppendRequest(nil, g.req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encode:\n got %x\nwant %x", got, want)
			}
			dec, err := ReadRequest(bufio.NewReader(bytes.NewReader(want)))
			if err != nil {
				t.Fatal(err)
			}
			if dec != g.req {
				t.Fatalf("decode:\n got %+v\nwant %+v", dec, g.req)
			}
		})
	}
	for _, g := range goldenResponses {
		t.Run("response/"+g.name, func(t *testing.T) {
			want := mustHex(t, g.hex)
			got, err := AppendResponse(nil, g.resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encode:\n got %x\nwant %x", got, want)
			}
			dec, err := ReadResponse(bufio.NewReader(bytes.NewReader(want)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, g.resp) {
				t.Fatalf("decode:\n got %+v\nwant %+v", dec, g.resp)
			}
		})
	}
}
