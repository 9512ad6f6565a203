package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// fragReader delivers data in reads of 1..max bytes, sizes drawn from rng:
// the fragmentation a TCP stream is free to apply.
type fragReader struct {
	data []byte
	rng  *rand.Rand
	max  int
}

func (r *fragReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+r.rng.Intn(r.max), len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// FuzzFrameReader holds the in-place reader to ReadFrame: over an arbitrary
// byte stream under arbitrary read fragmentation it must yield exactly the
// frames ReadFrame yields and end on the same error — io.EOF only between
// frames, io.ErrUnexpectedEOF inside one, ErrBadFrame for a bad header with
// the buffer not grown for it. Non-page payloads must be owned: they may not
// change when the buffer is reused for the next frame.
func FuzzFrameReader(f *testing.F) {
	small := AppendFrame(nil, FrameScanEnd, EncodeScanSummary(ScanSummary{Pages: 2, Bytes: 16384}))
	small = AppendFrame(small, FrameTables, nil)
	small = AppendFrame(small, FrameError, EncodeError(ErrNoStats))
	pages := AppendFrame(nil, FramePagesCk, bytes.Repeat([]byte{0xA5}, 10<<10)) // larger than the initial buffer
	pages = AppendFrame(pages, FrameStatsResult, bytes.Repeat([]byte{3}, 6<<10))
	pages = AppendFrame(pages, FramePagesCk, bytes.Repeat([]byte{7}, 64))
	oversize := binary.LittleEndian.AppendUint32([]byte{0x46, 0x48, FramePagesCk, ProtocolVersion}, MaxPayload+1)
	for _, data := range [][]byte{
		small, pages, oversize, append(bytes.Clone(small), oversize...),
		{}, {0x46}, small[:len(small)-3], pages[:FrameHeaderSize+100], pages[:FrameHeaderSize],
		{0x46, 0x48, FrameScan, ProtocolVersion + 1, 0, 0, 0, 0},
	} {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(data, int64(len(data)), uint16(1+len(data)/3), mode)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, seed int64, maxChunk uint16, mode uint8) {
		var src io.Reader = &fragReader{data: data, rng: rand.New(rand.NewSource(seed)), max: 1 + int(maxChunk)}
		switch mode % 4 {
		case 1:
			src = iotest.OneByteReader(bytes.NewReader(data))
		case 2:
			src = iotest.DataErrReader(src) // the last bytes arrive together with io.EOF
		case 3:
			src = bytes.NewReader(data) // every read filled to its limit
		}
		fr := NewFrameReader(src)
		ref := bytes.NewReader(data)
		var owned, ownedCopy []byte
		for {
			want, werr := ReadFrame(ref)
			size := len(fr.buf)
			got, gerr := fr.Next()
			if !bytes.Equal(owned, ownedCopy) {
				t.Fatal("a non-page payload changed when the buffer was reused")
			}
			if werr != nil || gerr != nil {
				// io.EOF and io.ErrUnexpectedEOF come back bare; a rejected
				// header wraps ErrBadFrame with the same message on both sides.
				bothBad := errors.Is(werr, ErrBadFrame) && errors.Is(gerr, ErrBadFrame) && werr.Error() == gerr.Error()
				if werr != gerr && !bothBad {
					t.Fatalf("ReadFrame ended with %v, FrameReader with %v", werr, gerr)
				}
				if errors.Is(gerr, ErrBadFrame) && len(fr.buf) != size {
					t.Fatalf("buffer went from %d to %d bytes for a rejected header", size, len(fr.buf))
				}
				return
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame type %d (%d bytes), ReadFrame has type %d (%d bytes)",
					got.Type, len(got.Payload), want.Type, len(want.Payload))
			}
			if len(fr.buf) > MaxPayload+2*FrameHeaderSize {
				t.Fatalf("buffer grew to %d bytes", len(fr.buf))
			}
			if got.Type != FramePagesCk {
				owned, ownedCopy = got.Payload, bytes.Clone(got.Payload)
			}
		}
	})
}
