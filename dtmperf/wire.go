package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// wireCounters are the packet counts every member of one distributed solve
// adds to, plus the instant the first wave packet left a subdomain — the end
// of set-up on the distributed workload.
type wireCounters struct {
	firstWave   atomic.Pointer[stamp] // nil until a wave is sent
	wavePackets atomic.Int64
	waveEntries atomic.Int64
	ctrlPackets atomic.Int64
	sendErrors  atomic.Int64
}

// countingTransport decorates one member's transport: it counts every Send
// by kind into the shared counters and, when timed, sums the time spent
// inside Send and blocked in Recv for this member.
type countingTransport struct {
	transport.Transport
	c     *wireCounters
	timed bool

	sends, recvs   atomic.Int64
	sendNS, recvNS atomic.Int64
}

func (t *countingTransport) Send(ctx context.Context, to int, pkt transport.Packet) error {
	if pkt.Kind == transport.KindWave {
		if t.c.firstWave.Load() == nil {
			s := now()
			t.c.firstWave.CompareAndSwap(nil, &s)
		}
		t.c.wavePackets.Add(1)
		t.c.waveEntries.Add(int64(len(pkt.Entries)))
	} else {
		t.c.ctrlPackets.Add(1)
	}
	var t0 time.Time
	if t.timed {
		t0 = time.Now()
	}
	err := t.Transport.Send(ctx, to, pkt)
	if t.timed {
		t.sendNS.Add(int64(time.Since(t0)))
		t.sends.Add(1)
	}
	if err != nil {
		t.c.sendErrors.Add(1)
	}
	return err
}

func (t *countingTransport) Recv(ctx context.Context) (transport.Packet, error) {
	if !t.timed {
		return t.Transport.Recv(ctx)
	}
	t0 := time.Now()
	pkt, err := t.Transport.Recv(ctx)
	t.recvNS.Add(int64(time.Since(t0)))
	t.recvs.Add(1)
	return pkt, err
}
