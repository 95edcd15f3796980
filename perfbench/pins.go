package main

// pinned holds each workload's result digests per suite, computed once
// with the Reference engine (go run . --pin, from this directory with
// --benchmark ../BENCHMARK.json).  A change that alters any simulated
// statistic changes a digest and fails the gate.
var pinned = map[string]string{
	"grid-dense/PDP-11":      "6393b18b06f61f5d22d9fcfd2d8dc3523c46c290ae5f84e7bc030dc77f0d1556",
	"grid-dense/Z8000":       "d3332bc55db478f7c33f4ec5b5e23f2246383e63e71ba839d240f5c1f5335a37",
	"grid-dense/VAX-11":      "2a5e2ba2875ca162f60b13488861de26fdb5ba5ed304addb5cd3cc30252fc45d",
	"grid-dense/System/370":  "40885565aaea700d80250d57df855f81c9d6979ec49158df6fa3e96a1ec449ad",
	"trace-long/PDP-11":      "cd8cb6d8192be4e1f7fc199b1f5b228f4d4f771299f34e0957b6e82e7e396d8b",
	"trace-long/Z8000":       "02b176cc6dbf37110752f835e735a4b1df255bf7989f3f622914cd344d50d621",
	"trace-long/VAX-11":      "a1c5b27a10de5fd92139d4c46111ea0ada86ac495a57be33e180995c4a9baf09",
	"trace-long/System/370":  "db2749d583dbc98d32457b36c17d25f63d634e7a82b240f40219dbadf37c6278",
	"service-mix/PDP-11":     "c32c49d14415247fa8698150e000a4d6ca2b11240d170f11f9df2647b0c7e33e",
	"service-mix/Z8000":      "b8eac195d708b46fe3714f318ba2d15ea8f501d60a63d401a2363ce575ccabed",
	"service-mix/VAX-11":     "0fd3390de663613f7f27db3cf924e21720662cc77c4bc147bd6e2eec11013278",
	"service-mix/System/370": "db5204e11fe014dbf1af229c980631d83cb668d590cb8d2852af75cef3cab81c",
}
