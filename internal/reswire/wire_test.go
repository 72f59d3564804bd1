package reswire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/resd"
)

// sampleRequests covers every op and the interesting field values
// (deadline sentinel, zero, large).
func sampleRequests() []Request {
	return []Request{
		{ID: 1, Op: OpReserve, Ready: 0, Procs: 1, Dur: 1, Deadline: resd.NoDeadline},
		{ID: 2, Op: OpReserve, Ready: 1 << 40, Procs: 1 << 20, Dur: 7, Deadline: 99},
		{ID: 3, Op: OpCancel, Resv: 0xFFFF_0000_0000_0001},
		{ID: 4, Op: OpQuery, Ready: 12345},
		{ID: 5, Op: OpSnapshot, Shard: 3},
		{ID: 6, Op: OpPing},
		{ID: 7, Op: OpStats},
	}
}

func sampleResponses() []Response {
	return []Response{
		{ID: 1, Op: OpReserve, Code: CodeOK,
			Resv: resd.Reservation{ID: 42, Shard: 2, Start: 100, Dur: 10, Procs: 8}},
		{ID: 2, Op: OpReserve, Code: CodeRejectedDeadline, Detail: "earliest 120 > deadline 99"},
		{ID: 3, Op: OpCancel, Code: CodeOK},
		{ID: 4, Op: OpQuery, Code: CodeOK, Free: []int{64, 0, 17}},
		{ID: 5, Op: OpSnapshot, Code: CodeOK, M: 8,
			Segs: []Segment{{Start: 0, Free: 8}, {Start: 10, Free: 3}, {Start: 20, Free: 8}}},
		{ID: 6, Op: OpPing, Code: CodeOK},
		{ID: 7, Op: OpStats, Code: CodeOK, Stats: []resd.ShardStats{
			{Active: 3, CommittedArea: 1000, Admitted: 10, Cancelled: 7, Rejected: 2,
				RejectedDeadline: 1, Batches: 5, Ops: 20},
		}},
		{ID: 8, Op: OpCancel, Code: CodeUnknownID, Detail: "0xdead on shard 0"},
		{ID: 9, Op: OpQuery, Code: CodeOK, Free: []int{}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		frame, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		got, err := ReadRequest(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got != req {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		frame, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		got, err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		// Empty vs nil slices are indistinguishable on the wire; normalise.
		if len(got.Free) == 0 {
			got.Free = resp.Free
		}
		if len(got.Segs) == 0 {
			got.Segs = resp.Segs
		}
		if len(got.Stats) == 0 {
			got.Stats = resp.Stats
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, resp)
		}
	}
}

func TestManyFramesPerStream(t *testing.T) {
	var stream []byte
	reqs := sampleRequests()
	for _, req := range reqs {
		var err error
		stream, err = AppendRequest(stream, req)
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range reqs {
		got, err := ReadRequest(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadRequest(br); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsHostileFrames(t *testing.T) {
	valid, err := AppendRequest(nil, Request{ID: 9, Op: OpReserve, Ready: 5, Procs: 2, Dur: 3, Deadline: resd.NoDeadline})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(b []byte)) []byte {
		b := bytes.Clone(valid)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated length prefix", valid[:2], io.ErrUnexpectedEOF},
		{"truncated payload", valid[:len(valid)-3], ErrFrame},
		{"bad magic", mutate(func(b []byte) { b[4] = 'X' }), ErrFrame},
		{"bad version", mutate(func(b []byte) { b[6] = 99 }), ErrVersion},
		{"unknown op", mutate(func(b []byte) { b[7] = 200 }), ErrFrame},
		{"oversized length", mutate(func(b []byte) {
			binary.BigEndian.PutUint32(b, MaxFrame+1)
		}), ErrFrame},
		{"length shorter than header", mutate(func(b []byte) {
			binary.BigEndian.PutUint32(b, headerLen-1)
		}), ErrFrame},
		{"trailing bytes", func() []byte {
			b := bytes.Clone(valid)
			b = append(b, 0xAA)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}(), ErrFrame},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadRequest(bufio.NewReader(bytes.NewReader(c.in)))
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestDecodeResponseBoundsVectors(t *testing.T) {
	// A Query response claiming 2^16 shards with a near-empty body must be
	// rejected before allocation.
	var b []byte
	b = append(b, 0, 0, 0, 0)
	b = appendHeader(b, OpQuery, 1)
	b = append(b, byte(CodeOK))
	b = binary.BigEndian.AppendUint32(b, 1<<16)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	if _, err := ReadResponse(bufio.NewReader(bytes.NewReader(b))); !errors.Is(err, ErrFrame) {
		t.Errorf("err = %v, want ErrFrame", err)
	}
}

func TestCodeErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{nil, CodeOK},
		{resd.ErrBadRequest, CodeBadRequest},
		{resd.ErrNeverFits, CodeNeverFits},
		{resd.ErrUnknownID, CodeUnknownID},
		{resd.ErrClosed, CodeClosed},
		{resd.ErrDeadline, CodeRejectedDeadline},
		{errors.New("disk on fire"), CodeInternal},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.code {
			t.Errorf("CodeOf(%v) = %v, want %v", c.err, got, c.code)
		}
		if c.code == CodeOK || c.code == CodeInternal {
			continue
		}
		// The round trip error→code→error must preserve errors.Is.
		if back := c.code.Err("detail"); !errors.Is(back, c.err) {
			t.Errorf("Code %v .Err() = %v, lost errors.Is(%v)", c.code, back, c.err)
		}
	}
	if CodeRejectedDeadline.String() != "REJECTED_DEADLINE" {
		t.Errorf("CodeRejectedDeadline.String() = %q", CodeRejectedDeadline.String())
	}
}
