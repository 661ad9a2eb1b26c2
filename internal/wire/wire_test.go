package wire_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/simnet"
	"repro/internal/wire"

	// core imports every protocol package, registering every codec.
	_ "repro/internal/core"
)

func frame(t testing.TB, from string, msg any) []byte {
	t.Helper()
	var w wire.Writer
	b, err := w.Frame(from, msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	return append([]byte(nil), b...)
}

func decode(b []byte) (string, any, error) { return new(wire.Reader).Frame(b) }

// muxFrame builds a mux envelope frame by hand — the mux type is
// unexported — as the sender header, the mux tag, the protocol name,
// then the inner message's tag and fields. Names must be shorter than
// 128 bytes so each length prefix is one byte.
func muxFrame(t testing.TB, from, proto string, inner any) []byte {
	out := append([]byte{byte(len(from))}, from...)
	out = append(out, byte(wire.TagMuxEnvelope), byte(len(proto)))
	out = append(out, proto...)
	return append(out, frame(t, "", inner)[1:]...) // drop the empty sender
}

// seedFrames returns one valid frame per message tag — the registered
// type's zero value, or a mux envelope around an Envelope — plus a few
// frames with content in every value-union case.
func seedFrames(t testing.TB) [][]byte {
	env := simnet.Envelope{Kind: 2, Flag: true, A: 1 << 40, B: 3, S: "z1-gw", T: "z2-gw", Bytes: 16}
	item := dataflow.Item{
		Key:        "zone/3/temp",
		Value:      dataflow.Item{Key: "inner", Value: "open"},
		Label:      dataflow.Label{Topic: "temp", Sensitivity: dataflow.Sensitive, Origin: "z3", Jurisdiction: "eu", TTL: time.Minute},
		ProducedAt: time.Second,
		Lineage:    []dataflow.Hop{{Node: "z3-s0", At: time.Second, Action: "produced"}},
	}
	var seeds [][]byte
	for tag := wire.TagMuxEnvelope; tag < wire.NumTags; tag++ {
		if tag == wire.TagMuxEnvelope {
			seeds = append(seeds, muxFrame(t, "a", "gossip", simnet.Envelope{}))
			continue
		}
		seeds = append(seeds, frame(t, "a", wire.ZeroMessage(tag)))
	}
	return append(seeds,
		frame(t, "z12-gw", env),
		muxFrame(t, "z12-gw", "data", env),
		frame(t, "z3-gw", item),
		frame(t, "z3-gw", dataflow.Item{Key: "k", Value: 21.5}),
		frame(t, "z3-gw", dataflow.Item{Key: "k", Value: true}),
	)
}

// TestTagsRegistered checks the one tag table against the codecs the
// protocol packages register: this binary imports all of them, so
// every message tag must have a codec (Register panics on a second).
func TestTagsRegistered(t *testing.T) {
	for tag := wire.TagMuxEnvelope; tag < wire.NumTags; tag++ {
		if wire.ZeroMessage(tag) == nil {
			t.Errorf("tag %d has no registered codec", tag)
		}
	}
}

func TestSeedFramesDecode(t *testing.T) {
	for i, b := range seedFrames(t) {
		if _, _, err := decode(b); err != nil {
			t.Errorf("seed %d (% x): %v", i, b, err)
		}
	}
}

// TestDecodeRejects feeds the decoder each malformed shape: every one
// must come back as the matching error, never a panic or a message.
func TestDecodeRejects(t *testing.T) {
	valid := frame(t, "a", simnet.Envelope{Kind: 1, A: 7})
	tagAt := 2 // one length byte, one sender byte
	withTag := func(tag byte) []byte {
		b := append([]byte(nil), valid...)
		b[tagAt] = tag
		return b
	}
	bad := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, wire.ErrTruncated},
		{"zero tag", withTag(0), wire.ErrUnknownTag},
		{"scalar tag heads a frame", withTag(byte(wire.TagFloat64)), wire.ErrUnknownTag},
		{"tag past the table", withTag(byte(wire.NumTags)), wire.ErrUnknownTag},
		{"tag 255", withTag(255), wire.ErrUnknownTag},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), wire.ErrTrailing},
		{"bool out of range", append(append([]byte(nil), valid[:tagAt+2]...), append([]byte{2}, valid[tagAt+3:]...)...), wire.ErrInvalid},
		{"sender longer than frame", []byte{0x7f, 'a'}, wire.ErrTruncated},
		{"4 GB slice length in 10 bytes", append([]byte{1, 'a', byte(wire.TagStoreInterest)}, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0), wire.ErrTruncated},
		{"overlong varint", append([]byte{1, 'a', byte(wire.TagStoreSyncAck)}, bytes.Repeat([]byte{0xff}, 11)...), wire.ErrTruncated},
		{"value tag not in the union", []byte{1, 'a', byte(wire.TagPubPublish), 0, 0, byte(wire.TagStoreSyncAck), 0, 0}, wire.ErrUnknownTag},
	}
	for _, c := range bad {
		from, msg, err := decode(c.b)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
		if from != "" || msg != nil {
			t.Errorf("%s: failed decode returned (%q, %v)", c.name, from, msg)
		}
	}
	// Every strict prefix of every seed is a truncation.
	for _, b := range seedFrames(t) {
		for n := 0; n < len(b); n++ {
			if _, _, err := decode(b[:n]); err == nil {
				t.Errorf("prefix %d of % x decoded", n, b)
			}
		}
	}
}

// TestDecodeChecksLengthsBeforeAllocating sends a datagram whose slice
// length prefix claims 2^32 elements: the decoder must refuse it
// without allocating for the claim.
func TestDecodeChecksLengthsBeforeAllocating(t *testing.T) {
	b := append([]byte{1, 'a', byte(wire.TagStoreInterest)}, 0xff, 0xff, 0xff, 0xff, 0x0f)
	allocs := testing.AllocsPerRun(50, func() { _, _, _ = decode(b) })
	if allocs > 2 {
		t.Fatalf("rejecting a 4 GB length prefix allocated %.0f times", allocs)
	}
}

// TestDecodeBoundsNesting nests items inside items past the depth
// limit: the decoder must stop with ErrTooDeep instead of recursing.
func TestDecodeBoundsNesting(t *testing.T) {
	it := dataflow.Item{Key: "leaf"}
	for i := 0; i < 40; i++ {
		it = dataflow.Item{Value: it}
	}
	if _, _, err := decode(frame(t, "a", it)); !errors.Is(err, wire.ErrTooDeep) {
		t.Fatalf("40-deep item: err %v, want ErrTooDeep", err)
	}
}

func TestEncodeRejectsTypesWithoutCodec(t *testing.T) {
	var w wire.Writer
	for _, msg := range []any{nil, "bare string", 3, struct{ A int }{1}, dataflow.Item{Value: 7}, dataflow.Item{Value: []byte("x")}} {
		if _, err := w.Frame("a", msg); !errors.Is(err, wire.ErrUnencodable) {
			t.Errorf("encode %#v: err %v, want ErrUnencodable", msg, err)
		}
	}
	// A failed frame does not poison the writer.
	if _, err := w.Frame("a", simnet.Envelope{}); err != nil {
		t.Fatalf("encode after a failure: %v", err)
	}
}

func TestRegisterPanicsOnDuplicates(t *testing.T) {
	type local struct{}
	enc := func(*wire.Writer, local) {}
	dec := func(*wire.Reader) local { return local{} }
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %v, want %q", name, r, want)
			}
		}()
		fn()
	}
	mustPanic("taken tag", "tag", func() { wire.Register(wire.TagGossipPing, enc, dec) })
	mustPanic("scalar tag", "not a message tag", func() { wire.Register(wire.TagString, enc, dec) })
	mustPanic("tag past the table", "not a message tag", func() { wire.Register(wire.NumTags, enc, dec) })
	mustPanic("registered type", "type already registered", func() {
		wire.Register(wire.TagGossipPing,
			func(*wire.Writer, simnet.Envelope) {},
			func(*wire.Reader) simnet.Envelope { return simnet.Envelope{} })
	})
}

// FuzzDecodeFrame feeds arbitrary datagrams to the decoder. Decoding
// must return an error or a message, never panic; a decoded message
// must re-encode, and that canonical frame must decode and re-encode
// to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		from, msg, err := decode(b)
		if err != nil {
			if msg != nil {
				t.Fatalf("decode failed (%v) but returned %T", err, msg)
			}
			return
		}
		var w wire.Writer
		canon, err := w.Frame(from, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		canon = append([]byte(nil), canon...)
		from2, msg2, err := decode(canon)
		if err != nil {
			t.Fatalf("canonical frame of %T does not decode: %v", msg, err)
		}
		again, err := w.Frame(from2, msg2)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical frame of %T is not stable (err %v)", msg, err)
		}
	})
}
