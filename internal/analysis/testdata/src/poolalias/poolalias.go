// Package poolalias exercises flush-scope escapes of pooled and
// append-rendered buffers.
package poolalias

import (
	"sync"

	"wirestub"
)

var pool = sync.Pool{New: func() any { return make([]byte, 0, 64) }}

var global []byte

type sink struct{ saved []byte }

func returned() []byte {
	buf := pool.Get().([]byte)
	return buf // want `sync\.Pool buffer buf escapes its flush scope: returned`
}

func returnedCopy() []byte {
	buf := pool.Get().([]byte)
	defer pool.Put(&buf)
	return append([]byte(nil), buf...) // copied out: safe
}

func sent(ch chan []byte) {
	fr, _ := wirestub.AppendLinkFrame(nil, 1, nil)
	ch <- fr // want `append-rendered buffer fr escapes its flush scope: sent on a channel`
}

func stored(s *sink) {
	buf := wirestub.AppendEncode(nil, 1)
	s.saved = buf // want `append-rendered buffer buf is retained beyond its flush scope`
}

func selfAppend(s *sink, v byte) {
	s.saved = wirestub.AppendEncode(s.saved, v) // rendering into owned scratch is the idiom
}

func appendGlobal() {
	fr, _ := wirestub.AppendLinkFrame(nil, 1, nil)
	global = append(global, fr...) // content copied into the package buffer
}

func aliasGlobal() {
	fr, _ := wirestub.AppendLinkFrame(nil, 1, nil)
	global = fr // want `append-rendered buffer fr is retained beyond its flush scope`
}

type outFrame struct{ b []byte }

func queuedLinkFrame(q chan outFrame) {
	buf, _ := wirestub.AppendLinkFrame(nil, 1, nil)
	q <- outFrame{b: buf} // want `append-rendered buffer buf escapes its flush scope: sent on a channel`
}

func handedOff(q chan outFrame) {
	buf, _ := wirestub.AppendLinkFrame(nil, 1, nil)
	//lint:ignore poolalias the queue transfers ownership to its consumer
	q <- outFrame{b: buf}
}

func storedLinkFrame(s *sink) {
	fr, _ := wirestub.AppendLinkFrame(nil, 1, nil)
	s.saved = fr // want `append-rendered buffer fr is retained beyond its flush scope`
}

func renderedLinkFrame(s *sink) {
	var err error
	s.saved, err = wirestub.AppendLinkFrame(s.saved, 1, nil) // the flush buffer renders into itself
	_ = err
}
