package server

import (
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/spec"
)

func TestProtoRoundTrips(t *testing.T) {
	h := Hello{Client: 7, Done: 123456}
	if got, err := DecodeHello(AppendHello(nil, h)); err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	a := HelloAck{Applied: 42, LastResp: -7, LastTicket: 999}
	if got, err := DecodeHelloAck(AppendHelloAck(nil, a)); err != nil || got != a {
		t.Fatalf("hello-ack round trip: %+v, %v", got, err)
	}
	r := Request{OpIndex: 5, Op: spec.MakeOp1(spec.MethodWrite, -3)}
	if got, err := DecodeRequest(AppendRequest(nil, r)); err != nil || got != r {
		t.Fatalf("request round trip: %+v, %v", got, err)
	}
	resp := Response{OpIndex: 5, Resp: -3, Ticket: 88}
	if got, err := DecodeResponse(AppendResponse(nil, resp)); err != nil || got != resp {
		t.Fatalf("response round trip: %+v, %v", got, err)
	}
	if text, ok := DecodeError(AppendError(nil, "boom")); !ok || text != "boom" {
		t.Fatalf("error round trip: %q, %v", text, ok)
	}
}

func TestProtoRoundTripQuick(t *testing.T) {
	f := func(opIndex uint64, resp int64, ticket uint64, arg int64, nargs uint8) bool {
		op := spec.MakeOp(spec.MethodFetchInc)
		if nargs%2 == 1 {
			op = spec.MakeOp1(spec.MethodWrite, arg)
		}
		r := Request{OpIndex: opIndex, Op: op}
		got, err := DecodeRequest(AppendRequest(nil, r))
		if err != nil || got != r {
			return false
		}
		rs := Response{OpIndex: opIndex, Resp: resp, Ticket: ticket}
		gotR, err := DecodeResponse(AppendResponse(nil, rs))
		return err == nil && gotR == rs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeRequest: decoding a request payload undoes AppendRequest, and
// no payload makes DecodeRequest panic — what a decoded hostile payload
// yields re-encodes to a payload that decodes to the same request.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, opIndex uint64, method string, nargs uint8, a, b int64, raw []byte) {
		op := spec.Op{Method: method, NArgs: int(nargs % 3)}
		copy(op.Args[:op.NArgs], []int64{a, b})
		r := Request{OpIndex: opIndex, Op: op}
		if got, err := DecodeRequest(AppendRequest(nil, r)); err != nil || got != r {
			t.Fatalf("round trip of %+v: %+v, %v", r, got, err)
		}
		got, err := DecodeRequest(raw)
		if err != nil {
			return
		}
		if again, err := DecodeRequest(AppendRequest(nil, got)); err != nil || again != got {
			t.Fatalf("re-encoding %+v: %+v, %v", got, again, err)
		}
	})
}
