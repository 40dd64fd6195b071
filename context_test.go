package slim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slim/internal/protocol"
)

// TestContextCancelClosesUDPServer ties a daemon and a console to a
// context and checks cancellation tears both down — every background
// goroutine (serve loops, flow pacer, context watchers) joins.
func TestContextCancelClosesUDPServer(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ListenAndServeContext(ctx, "127.0.0.1:0", WithTerminalApp(),
		WithFlowControl(FlowConfig{}), WithCostModel(SunRay1Costs()))
	if err != nil {
		t.Fatal(err)
	}
	srv.Server.Auth.Register("card-ctx", "ctxuser")
	con, err := DialConsoleContext(ctx, srv.Addr().String(), ConsoleConfig{Width: 160, Height: 120}, TokenOf("card-ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := con.TypeString("hi"); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Close is idempotent with the context watcher's close; both block
	// until the goroutines have joined.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if err := con.Close(); err != nil {
		t.Fatalf("console Close after cancel: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancel+close", before, runtime.NumGoroutine())
}

// TestDialConsoleContextCanceled checks the dial path honors an
// already-dead context instead of connecting.
func TestDialConsoleContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialConsoleContext(ctx, "127.0.0.1:1", ConsoleConfig{Width: 64, Height: 64}, NoToken); err == nil {
		t.Fatal("dial with canceled context succeeded")
	}
}

// TestUDPServerConcurrentClose checks Close is safe to race with itself.
func TestUDPServerConcurrentClose(t *testing.T) {
	srv, err := ListenAndServeContext(context.Background(), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { done <- srv.Close() }()
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("concurrent Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("concurrent Close hung")
		}
	}
}

// blockingTicker is a Ticker application whose first Tick reports its
// clock reading and then blocks until released.
type blockingTicker struct {
	entered chan time.Duration
	release chan struct{}
	ticks   atomic.Int32
}

func (a *blockingTicker) HandleKey(protocol.KeyEvent) []Op         { return nil }
func (a *blockingTicker) HandlePointer(protocol.PointerEvent) []Op { return nil }

func (a *blockingTicker) Tick(now time.Duration) []Op {
	if a.ticks.Add(1) == 1 {
		a.entered <- now
		<-a.release
	}
	return nil
}

// TestUDPTickerSharesClockAndJoinsOnClose: StartTicker's ticks read the
// listener's clock (so a tick started late still reports time since
// listen), Close does not return while a Tick runs, and no Tick runs
// after Close returns.
func TestUDPTickerSharesClockAndJoinsOnClose(t *testing.T) {
	app := &blockingTicker{entered: make(chan time.Duration, 1), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(app.release) }) }
	defer release()
	srv, err := ListenAndServeContext(context.Background(), "127.0.0.1:0",
		func(string, int, int) Application { return app })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A session whose console has no socket address: its sends fail, and
	// with no console traffic the serve goroutine stays idle, so only the
	// ticker can hold Close up.
	srv.Server.Auth.Register("card-t", "tv")
	_ = srv.Server.Handle("ghost", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-t"}, 0)
	if srv.Server.SessionByUser("tv") == nil {
		t.Fatal("no session for tv")
	}

	time.Sleep(20 * time.Millisecond) // StartTicker comes well after listen
	sinceListen := time.Since(srv.start)
	srv.StartTicker(1000)
	if now := <-app.entered; now < sinceListen {
		t.Errorf("first tick at %v, but StartTicker ran %v after listen: the ticker keeps its own clock", now, sinceListen)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while Tick was running")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	ticks := app.ticks.Load()
	time.Sleep(20 * time.Millisecond) // twenty tick intervals
	if got := app.ticks.Load(); got != ticks {
		t.Errorf("%d ticks ran after Close returned", got-ticks)
	}
}
