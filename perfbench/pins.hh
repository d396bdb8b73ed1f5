/**
 * @file
 * Outputs pinned at the default seeds. A change that only makes the
 * program faster must leave every value here matching; regenerate
 * them (`perfbench --workload <w> --dump-pins`) only for a change
 * that deliberately alters simulated results, and say so.
 */

#ifndef FLEXI_PERFBENCH_PINS_HH
#define FLEXI_PERFBENCH_PINS_HH

#include <cstdint>

namespace perfbench
{

/** @name wafer_yield (seed base 1000: Table 5's wafer set) */
///@{
constexpr uint64_t kWaferDefaultSeed = 1000;
constexpr unsigned kTableWafers = 20;
/** FNV-1a of every die's (3 V, 4.5 V) error counts, [core][wafer]. */
constexpr uint64_t kWaferDigests[2][kTableWafers] = {
    {
        10059179718518214897ull, 4171504524629806388ull,
        1509627593380604467ull, 10743241453780692759ull,
        17483983152808378678ull, 16087606656645803803ull,
        14444360933136527808ull, 12920528720982221684ull,
        14851177807352728407ull, 10118934920622496369ull,
        12244728672081687465ull, 9008987275381653192ull,
        7620870337491975563ull, 8766234621318676688ull,
        6309090389877646603ull, 3736519170549777079ull,
        14558346781508299993ull, 16942120535049364494ull,
        7632434631576782629ull, 17159054619267274607ull
    },
    {
        10750148488791980011ull, 13571721646304840250ull,
        9461536676919168017ull, 17725005502204662829ull,
        12466102427986976427ull, 3823087071385597702ull,
        11494578388171242981ull, 9271887863550019613ull,
        16157889477226162006ull, 18350764060313384121ull,
        14337039308323857886ull, 9902568687643449824ull,
        3220860339910085870ull, 13195320168798390553ull,
        18178797935662584512ull, 14868141267105470795ull,
        8842586473265900925ull, 16243158803755718561ull,
        2759589299825896400ull, 14883299585670394199ull
    },
};
/** Mean yields in percent: full 3 V, full 4.5 V, incl 3 V, incl 4.5 V. */
constexpr double kWaferYieldPct[2][4] = {
    {42.166666666666671, 69.583333333333329, 51.76136363636364,
     84.829545454545453},
    {4.5833333333333339, 51.666666666666664, 5.7386363636363624,
     63.806818181818187},
};
///@}

/** @name fault_grade (test-program seeds 11 .. 18) */
///@{
constexpr uint64_t kFaultDefaultSeed = 11;
constexpr unsigned kFaultSeeds = 8;
/** {simDetected, testable, redundant}, [core][seed index]. */
constexpr unsigned kFaultVerdicts[2][kFaultSeeds][3] = {
    {{401, 22, 33}, {400, 23, 33}, {393, 30, 33}, {393, 30, 33},
     {381, 42, 33}, {394, 29, 33}, {385, 38, 33}, {376, 47, 33}},
    {{502, 23, 41}, {512, 13, 41}, {481, 44, 41}, {503, 22, 41},
     {476, 49, 41}, {480, 45, 41}, {488, 37, 41}, {467, 58, 41}},
};
///@}

/** @name fleet_life (bench_fleet's recover-policy curve, seeds 11 .. 26) */
///@{
constexpr uint64_t kFleetDefaultSeed = 11;
constexpr unsigned kFleetSeeds = 16;
/** fleetDigest of each campaign. */
constexpr uint64_t kFleetDigests[kFleetSeeds] = {
    1887072950751292026ull, 8156479316394689317ull,
    14845636165124341644ull, 16690105074230753944ull,
    3198068641346407083ull, 1752503298918734491ull,
    14123019364748859987ull, 1235320643871779746ull,
    10108777757910653566ull, 10237769657311540205ull,
    10034922863629317371ull, 18197077937526908843ull,
    9548826590826558887ull, 17644775259168510682ull,
    11446356338719010513ull, 10577677355719202667ull
};
///@}

} // namespace perfbench

#endif // FLEXI_PERFBENCH_PINS_HH
