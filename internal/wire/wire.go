// Package wire is the binary codec realnet frames its datagrams with.
// It is a stdlib-only leaf: protocol packages register an encoder and a
// decoder for each of their message types at package init, keyed by a
// Tag from the one table below, and realnet frames and parses whole
// datagrams through Writer.Frame and Reader.Frame.
//
// Frame layout (every integer is an encoding/binary varint):
//
//	uvarint len(from) | from bytes | tag byte | message fields
//
// Message fields are written in declaration order with the primitives
// of Writer: unsigned integers as uvarints, signed integers and
// durations as zig-zag varints, bools as one byte (0 or 1), float64 as
// 8 little-endian bytes, strings and slices as a uvarint length followed
// by their contents, int-keyed maps as a length followed by key/value
// pairs in ascending key order. The any-typed fields protocols carry (an item's
// value, a raft command, a pubsub payload) use a closed value union: one
// tag byte — TagNil, TagFloat64, TagString, TagBool or a value tag such
// as TagItem — followed by the value's encoding. A frame must be
// consumed exactly: unknown tags, truncated fields and trailing bytes
// are errors, never panics, and every length prefix is checked against
// the bytes remaining before anything is allocated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"
)

// Tag identifies a message type on the wire. Tags are part of the
// format: append new ones, never renumber.
type Tag uint8

const (
	tagInvalid Tag = iota // zero never heads a frame or a value

	// Value-union scalars. They only ever appear inside a value and
	// have no registered codec.
	TagNil
	TagFloat64
	TagString
	TagBool

	// simnet
	TagMuxEnvelope
	TagEnvelope

	// gossip
	TagGossipPing
	TagGossipAck
	TagGossipPingReq
	TagGossipJoin
	TagGossipJoinAck
	TagGossipSync
	TagGossipLeave

	// consensus
	TagRaftRequestVote
	TagRaftRequestVoteResp
	TagRaftPreVote
	TagRaftPreVoteResp
	TagRaftAppendEntries
	TagRaftAppendEntriesResp

	// dataflow
	TagStoreSync
	TagStoreSyncAck
	TagStoreInterest
	TagItem

	// mape
	TagKnowledgeSync

	// pubsub
	TagPubSubscribe
	TagPubUnsubscribe
	TagPubPublish
	TagPubAck
	TagPubDeliver

	// core
	TagReading
	TagReadingAck
	TagActuate
	TagPlacementCmd

	numTags // one past the last tag
)

// valueTag marks the registered types that may travel inside the value
// union besides its scalars: the closed set of struct values the
// archetypes and the serve path put in an any-typed field.
var valueTag = [numTags]bool{TagItem: true, TagActuate: true, TagPlacementCmd: true}

// maxDepth bounds how deeply values and messages may nest in one
// frame, so a crafted datagram cannot recurse the decoder without
// limit.
const maxDepth = 16

// Decoding errors. Every failed decode wraps one of them.
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrUnknownTag = errors.New("wire: unknown tag")
	ErrTrailing   = errors.New("wire: trailing bytes")
	ErrInvalid    = errors.New("wire: invalid field")
	ErrTooDeep    = errors.New("wire: nesting too deep")
)

// ErrUnencodable is returned when a message or value has no codec.
var ErrUnencodable = errors.New("wire: unencodable type")

type codec struct {
	tag Tag
	typ reflect.Type
	enc func(*Writer, any)
	dec func(*Reader) any
}

// The registration tables are filled by package inits and read-only
// afterwards.
var (
	byTag  [numTags]*codec
	byType = make(map[reflect.Type]*codec)
)

// Register binds tag to message type T. Call it from the init of the
// package that owns T; registering a tag or a type twice panics.
func Register[T any](tag Tag, enc func(*Writer, T), dec func(*Reader) T) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if tag <= TagBool || tag >= numTags {
		panic(fmt.Sprintf("wire: register %v: tag %d is not a message tag", typ, tag))
	}
	if byType[typ] != nil {
		panic(fmt.Sprintf("wire: register %v: type already registered", typ))
	}
	if byTag[tag] != nil {
		panic(fmt.Sprintf("wire: register %v: tag %d already registered", typ, tag))
	}
	c := &codec{
		tag: tag,
		typ: typ,
		enc: func(w *Writer, m any) { enc(w, m.(T)) },
		dec: func(r *Reader) any { return dec(r) },
	}
	byTag[tag] = c
	byType[typ] = c
}

// Writer appends a frame to a buffer it reuses across frames. The
// first encoding failure sticks; later writes are no-ops.
type Writer struct {
	buf  []byte
	err  error
	keys []int // WriteIntMap's sort scratch, used as a stack
}

// Frame encodes one datagram from sender from carrying msg, replacing
// the writer's previous frame. The returned bytes alias the writer's
// buffer and stay valid until the next call.
func (w *Writer) Frame(from string, msg any) ([]byte, error) {
	w.buf, w.err = w.buf[:0], nil
	w.String(from)
	w.Msg(msg)
	return w.buf, w.err
}

// Msg writes msg's tag followed by its fields.
func (w *Writer) Msg(msg any) {
	c := byType[reflect.TypeOf(msg)]
	if c == nil {
		w.fail(fmt.Errorf("%w %T", ErrUnencodable, msg))
		return
	}
	w.buf = append(w.buf, byte(c.tag))
	c.enc(w, msg)
}

// Value writes v as a member of the closed value union: nil, float64,
// string, bool or a value-tagged registered type. Anything else fails
// the frame with ErrUnencodable.
func (w *Writer) Value(v any) {
	switch x := v.(type) {
	case nil:
		w.buf = append(w.buf, byte(TagNil))
	case float64:
		w.buf = append(w.buf, byte(TagFloat64))
		w.Float64(x)
	case string:
		w.buf = append(w.buf, byte(TagString))
		w.String(x)
	case bool:
		w.buf = append(w.buf, byte(TagBool))
		w.Bool(x)
	default:
		if c := byType[reflect.TypeOf(v)]; c != nil && valueTag[c.tag] {
			w.buf = append(w.buf, byte(c.tag))
			c.enc(w, v)
			return
		}
		w.fail(fmt.Errorf("%w %T in value", ErrUnencodable, v))
	}
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Uvarint writes an unsigned integer.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint writes a signed integer.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int writes a Go int.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Duration writes a time.Duration.
func (w *Writer) Duration(d time.Duration) { w.Varint(int64(d)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	w.buf = append(w.buf, v)
}

// Float64 writes a float64 as its 8 IEEE-754 bytes.
func (w *Writer) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Len writes a slice or map length prefix.
func (w *Writer) Len(n int) { w.Uvarint(uint64(n)) }

// WriteSlice writes a length-prefixed slice, each element with put.
func WriteSlice[T any](w *Writer, s []T, put func(*Writer, T)) {
	w.Len(len(s))
	for _, v := range s {
		put(w, v)
	}
}

// WriteIntMap writes a length-prefixed map in ascending key order, each
// value with put, so equal maps encode to equal bytes. The key sort
// reuses the writer's scratch space: once warm it does not allocate,
// whatever the map's size.
func WriteIntMap[V any](w *Writer, m map[int]V, put func(*Writer, V)) {
	base := len(w.keys)
	for k := range m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys[base:])
	w.Len(len(m))
	for i := range len(m) {
		// Index afresh each time: a nested map in put may grow w.keys.
		k := w.keys[base+i]
		w.Int(k)
		put(w, m[k])
	}
	w.keys = w.keys[:base]
}

// Reader decodes frames. The first decoding failure sticks: later
// reads return zero values, and Frame reports the failure.
type Reader struct {
	buf   []byte
	err   error
	depth int
}

// Frame parses one datagram into its sender and message. The message
// holds no reference to b, so the caller may reuse it at once.
func (r *Reader) Frame(b []byte) (from string, msg any, err error) {
	*r = Reader{buf: b}
	from = r.String()
	msg = r.Msg()
	if r.err == nil && len(r.buf) > 0 {
		r.fail(fmt.Errorf("%w: %d after the message", ErrTrailing, len(r.buf)))
	}
	if r.err != nil {
		return "", nil, r.err
	}
	return from, msg, nil
}

// Msg reads a tag and the message it heads.
func (r *Reader) Msg() any {
	tag := Tag(r.byte())
	if r.err != nil {
		return nil
	}
	if tag >= numTags || byTag[tag] == nil {
		r.fail(fmt.Errorf("%w %d", ErrUnknownTag, tag))
		return nil
	}
	return r.nested(byTag[tag])
}

// Value reads a member of the value union written by Writer.Value.
func (r *Reader) Value() any {
	tag := Tag(r.byte())
	if r.err != nil {
		return nil
	}
	switch tag {
	case TagNil:
		return nil
	case TagFloat64:
		return r.Float64()
	case TagString:
		return r.String()
	case TagBool:
		return r.Bool()
	}
	if tag >= numTags || !valueTag[tag] || byTag[tag] == nil {
		r.fail(fmt.Errorf("%w %d in value", ErrUnknownTag, tag))
		return nil
	}
	return r.nested(byTag[tag])
}

func (r *Reader) nested(c *codec) any {
	if r.depth++; r.depth > maxDepth {
		r.fail(ErrTooDeep)
		return nil
	}
	v := c.dec(r)
	r.depth--
	if r.err != nil {
		return nil
	}
	return v
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = nil
	}
}

func (r *Reader) byte() byte {
	if len(r.buf) == 0 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Uvarint reads an unsigned integer.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed integer.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a Go int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("%w: int %d out of range", ErrInvalid, v))
		return 0
	}
	return int(v)
}

// Uint16 reads an unsigned integer that must fit 16 bits.
func (r *Reader) Uint16() uint16 {
	v := r.Uvarint()
	if v > math.MaxUint16 {
		r.fail(fmt.Errorf("%w: uint16 %d out of range", ErrInvalid, v))
		return 0
	}
	return uint16(v)
}

// Int32 reads a signed integer that must fit 32 bits.
func (r *Reader) Int32() int32 {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(fmt.Errorf("%w: int32 %d out of range", ErrInvalid, v))
		return 0
	}
	return int32(v)
}

// Duration reads a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Varint()) }

// Bool reads a bool; any byte but 0 or 1 is invalid.
func (r *Reader) Bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(fmt.Errorf("%w: bool", ErrInvalid))
	return false
}

// Float64 reads 8 IEEE-754 bytes.
func (r *Reader) Float64() float64 {
	if len(r.buf) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Len reads a length prefix. Every slice element, map entry and string
// byte occupies at least one byte of the frame, so a length beyond the
// bytes remaining is truncation — caught here, before the caller
// allocates for it.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

// ReadIntMap reads a map written by WriteIntMap, each value with get.
// An empty map decodes as nil.
func ReadIntMap[V any](r *Reader, get func(*Reader) V) map[int]V {
	n := r.Len()
	if n == 0 {
		return nil
	}
	m := make(map[int]V, n)
	for range n {
		k := r.Int()
		m[k] = get(r)
	}
	if r.err != nil {
		return nil
	}
	return m
}

// ReadSlice reads a slice written by WriteSlice, each element with get.
// An empty slice decodes as nil.
func ReadSlice[T any](r *Reader, get func(*Reader) T) []T {
	n := r.Len()
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = get(r)
	}
	if r.err != nil {
		return nil
	}
	return s
}
