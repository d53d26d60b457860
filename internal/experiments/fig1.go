package experiments

import (
	"io"
	"time"

	"swapservellm/internal/workload"
)

// Fig1Series is the weekly token-volume trace for one workload class
// (Figure 1): hourly input and output token counts over seven days.
type Fig1Series struct {
	Class   workload.Class
	Buckets []workload.HourlyBucket
}

// Figure1 reproduces Figure 1: a synthetic week of Coding and
// Conversational traffic with the Azure traces' qualitative shape —
// weekday business-hour bursts (the 8AM–5PM zoom), weekend troughs, and
// the classes' opposite input/output token skews.
func Figure1(seed int64) []Fig1Series {
	// Start on a Monday so the weekday/weekend structure is aligned.
	start := time.Date(2025, 11, 17, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 7)
	var out []Fig1Series
	for i, c := range []workload.Class{workload.ClassCoding, workload.ClassConversational} {
		g := workload.NewGenerator(seed + int64(i))
		reqs := g.Arrivals(c, string(c), start, end, 1200, 2.0)
		out = append(out, Fig1Series{
			Class:   c,
			Buckets: workload.BucketHourly(reqs, start, end),
		})
	}
	return out
}

// Fig1Summary condenses a series for reporting: total tokens, the
// weekday-peak to overnight-trough ratio, and the business-hours share.
type Fig1Summary struct {
	Class            workload.Class
	TotalInput       int64
	TotalOutput      int64
	PeakTroughRatio  float64
	BusinessShare    float64 // fraction of weekday tokens in 8AM–5PM
	WeekendReduction float64 // weekend vs weekday daily volume
}

// Summarize computes the figure's headline statistics for one series.
func Summarize(s Fig1Series) Fig1Summary {
	sum := Fig1Summary{Class: s.Class}
	var peak, trough int64 = 0, 1 << 62
	var weekdayTokens, weekendTokens, businessTokens int64
	weekdays, weekendDays := 0, 0
	seenWeekday := make(map[string]bool)
	for _, b := range s.Buckets {
		total := b.InputTokens + b.OutputTokens
		sum.TotalInput += b.InputTokens
		sum.TotalOutput += b.OutputTokens
		wd := b.Start.Weekday()
		weekend := wd == time.Saturday || wd == time.Sunday
		if weekend {
			weekendTokens += total
		} else {
			weekdayTokens += total
			if h := b.Start.Hour(); h >= 8 && h < 17 {
				businessTokens += total
			}
			if total > peak {
				peak = total
			}
			if h := b.Start.Hour(); h >= 2 && h < 5 && total < trough {
				trough = total
			}
		}
		day := b.Start.Format("2006-01-02")
		if !seenWeekday[day] {
			seenWeekday[day] = true
			if weekend {
				weekendDays++
			} else {
				weekdays++
			}
		}
	}
	if trough < 1 {
		trough = 1
	}
	sum.PeakTroughRatio = float64(peak) / float64(trough)
	if weekdayTokens > 0 {
		sum.BusinessShare = float64(businessTokens) / float64(weekdayTokens)
	}
	if weekdays > 0 && weekendDays > 0 && weekdayTokens > 0 {
		perWeekday := float64(weekdayTokens) / float64(weekdays)
		perWeekendDay := float64(weekendTokens) / float64(weekendDays)
		sum.WeekendReduction = 1 - perWeekendDay/perWeekday
	}
	return sum
}

// PrintFigure1 renders the weekly series summaries and a compact
// per-day breakdown.
func PrintFigure1(w io.Writer, series []Fig1Series) {
	fprintf(w, "Figure 1: weekly token volume, Coding vs Conversational (synthetic Azure-shaped trace)\n")
	for _, s := range series {
		sum := Summarize(s)
		fprintf(w, "%-15s total_in=%dM total_out=%dM in:out=%.1f peak:trough=%.0fx business_share=%.0f%% weekend_drop=%.0f%%\n",
			s.Class,
			sum.TotalInput/1e6, sum.TotalOutput/1e6,
			float64(sum.TotalInput)/float64(max(sum.TotalOutput, 1)),
			sum.PeakTroughRatio, 100*sum.BusinessShare, 100*sum.WeekendReduction)
		// Daily totals give the weekly silhouette.
		daily := make(map[string]int64)
		var order []string
		for _, b := range s.Buckets {
			day := b.Start.Format("Mon")
			key := b.Start.Format("2006-01-02") + " " + day
			if _, seen := daily[key]; !seen {
				order = append(order, key)
			}
			daily[key] += b.InputTokens + b.OutputTokens
		}
		for _, day := range order {
			fprintf(w, "  %s %6.1fM tokens\n", day[len(day)-3:], float64(daily[day])/1e6)
		}
	}
}
