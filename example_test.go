package ecosched_test

import (
	"fmt"
	"log"
	"os"
	"time"

	"ecosched"
)

// ExampleNew walks the paper's full pipeline: benchmark,
// train, pre-load, then submit an opted-in job that the eco plugin
// rewrites to the energy-efficient configuration.
func ExampleNew() {
	dir, err := os.MkdirTemp("", "example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	d, err := ecosched.New(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	if _, err := d.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0); err != nil {
		log.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		log.Fatal(err)
	}

	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		log.Fatal(err)
	}
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	fmt.Printf("rewritten to %d cores @ %.1f GHz\n", rec.Cores, float64(rec.FreqKHz)/1e6)
	fmt.Printf("state: %s\n", done.State)
	// Output:
	// rewritten to 32 cores @ 2.2 GHz
	// state: COMPLETED
}

// ExampleDeployment_EstimateEnergyKJ compares the paper's standard and
// best configurations on the calibrated node model.
func ExampleDeployment_EstimateEnergyKJ() {
	dir, _ := os.MkdirTemp("", "example")
	defer os.RemoveAll(dir)
	d, err := ecosched.New(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	stdKJ, _ := d.EstimateEnergyKJ(ecosched.StandardConfig())
	bestKJ, _ := d.EstimateEnergyKJ(ecosched.BestConfig())
	fmt.Printf("standard: %.0f kJ\n", stdKJ)
	fmt.Printf("best:     %.0f kJ\n", bestKJ)
	fmt.Printf("saving:   %.0f%%\n", 100*(1-bestKJ/stdKJ))
	// Output:
	// standard: 240 kJ
	// best:     213 kJ
	// saving:   11%
}

// ExampleEnergyMarket_BestStart finds the cheapest window for an HPCG
// job in the synthetic electricity market (§6.2.4).
func ExampleEnergyMarket_BestStart() {
	market := ecosched.NewEnergyMarket(2023)
	window := time.Date(2023, 5, 10, 0, 0, 0, 0, time.UTC)
	start, cost, err := market.BestStart(
		window, window.Add(24*time.Hour), 19*time.Minute, 190, 15*time.Minute, ecosched.MinCost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("start at %s for %.4f EUR\n", start.Format("15:04"), cost)
	// Output:
	// start at 12:45 for 0.0083 EUR
}

// ExampleGPUModel_TuneWithinPerfLoss reproduces the §6.2.2 cited
// result: large energy savings for a bounded performance loss.
func ExampleGPUModel_TuneWithinPerfLoss() {
	res, err := ecosched.DefaultGPU().TuneWithinPerfLoss(0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core %d MHz, mem %d MHz\n", res.Best.CoreMHz, res.Best.MemMHz)
	fmt.Printf("saving %.1f%% at %.2f%% loss\n", res.EnergySavingPct, res.PerfLossPct)
	// Output:
	// core 1150 MHz, mem 3000 MHz
	// saving 27.5% at 0.89% loss
}
