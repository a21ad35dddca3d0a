package noc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"pimnet/internal/sim"
)

// TestDeliveryStreamDigest pins every packet delivery of scripted runs, not
// just their Result: the SHA-256 of the (uid, born, arrival) stream in the
// order deliverObserver sees it. Each case sends multi-packet messages
// (256-byte packets) through hops of depth 1 and 4 in both modes, so
// messages wait for first-hop credits mid-message and uids interleave
// across messages. A change in packet creation, credit order or uid
// assignment that leaves Finish, PacketsDelivered and MaxQueue alone still
// moves a digest.
func TestDeliveryStreamDigest(t *testing.T) {
	want := map[string]string{
		"allreduce/credit/buf1": "bdbd78efd48a633f197ca2a7b54641500cf8fe0152008033d3ce8ad633527984",
		"allreduce/credit/buf4": "c85fef4b92a9fc05cbbbf8eda75ac3b691ec0422f2282c3f23079fcfe5277621",
		"allreduce/static/buf1": "3ace87dadfd2775e631301ce5fdef11afddf77c8443f62b784d98579214f789c",
		"allreduce/static/buf4": "6b11834eccfe6ccf7f1223b3767566f7acae7cf091a7f11cf8cca2ab453c9d31",
		"alltoall/credit/buf1":  "d236065927844a8e2ec7d811280d4e63d5c946d5b331ec9792d06c227ab2b479",
		"alltoall/credit/buf4":  "9ab3fb52b3ea9e81ccab9970c1bac0d82c05bccbc7c8e07b3ec06de5aaf3a78e",
		"alltoall/static/buf1":  "ffd2078d484ae6e31f482b1b7652c0562cc0613df84caf24fd4ef77b5d9e3071",
		"alltoall/static/buf4":  "d9795d4ecf5a88a3ef02119d2c9db1516b2357c179a8c07fca39ea78a55d51d3",
		"transpose/credit/buf1": "beeee87658d1944d44bb78816995b7b175e1e25e9b856f5bb0a426153aaf6b52",
		"transpose/credit/buf4": "010c84ac3272ba007cedd01fda820508953079bd802fb667a63652ad0744737c",
		"transpose/static/buf1": "6937592e694fa76151f194c7e07578ad752545911b8cefe6b51a9cb38eb9769c",
		"transpose/static/buf4": "90f83a9ede15beaee18b5f37f90a69a553c2896f63ef5267ecf5041cfe8e09ed",
	}
	modeName := map[Mode]string{CreditBased: "credit", StaticScheduled: "static"}
	for _, mode := range []Mode{CreditBased, StaticScheduled} {
		for _, buf := range []int{1, 4} {
			cfg := DefaultConfig(2, 4, 8)
			cfg.BufferPackets, cfg.PacketBytes = buf, 256
			n := cfg.Nodes()
			done := SkewedFinishTimes(n, 10*sim.Microsecond, 5*sim.Microsecond, 3)
			runs := map[string]func() (Result, error){
				// 64 KiB per node: 1 KiB ring chunks, 4 packets each.
				"allreduce": func() (Result, error) { return SimulateAllReduce(cfg, mode, done, 64<<10) },
				// 128 KiB per node: 2 KiB blocks, 8 packets each.
				"alltoall": func() (Result, error) { return SimulateAllToAll(cfg, mode, done, 128<<10) },
				// 3000-byte messages: 12 packets, the last one short.
				"transpose": func() (Result, error) {
					return SimulatePattern(cfg, mode, Transpose, done, 3000, 3, 5)
				},
			}
			for name, run := range runs {
				key := fmt.Sprintf("%s/%s/buf%d", name, modeName[mode], buf)
				h := sha256.New()
				var rec [24]byte
				var observed int64
				deliverObserver = func(uid int64, born, at sim.Time) {
					observed++
					binary.LittleEndian.PutUint64(rec[0:], uint64(uid))
					binary.LittleEndian.PutUint64(rec[8:], uint64(born))
					binary.LittleEndian.PutUint64(rec[16:], uint64(at))
					h.Write(rec[:])
				}
				res, err := run()
				deliverObserver = nil
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if observed != res.PacketsDelivered || observed == 0 {
					t.Fatalf("%s: observed %d deliveries, result reports %d", key, observed, res.PacketsDelivered)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s: delivery stream digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
