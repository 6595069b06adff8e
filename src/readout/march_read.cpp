#include "readout/march_read.h"

#include <memory>
#include <utility>
#include <vector>

#include "util/error.h"

namespace mram::rdo {

mem::MarchReadHook make_march_read_hook(const ReadErrorModel& model,
                                        double temperature) {
  // Single-entry operating-point cache, shared across the hook's calls.
  // The operating point depends only on (row, column data): every column
  // has the same ladder, so the column index is not part of the key. March
  // loops re-read the same row with unchanged data all the time --
  // back-to-back hammer reads most of all, and reads of the next column
  // holding the same data -- and every such repeat would otherwise pay the
  // ladder solve again. One entry suffices because writes change the data
  // between most other reads anyway.
  struct Cache {
    bool valid = false;
    std::size_t row = 0;
    std::vector<int> column;
    ReadErrorModel::OperatingPoint op;
  };
  auto cache = std::make_shared<Cache>();

  return [&model, temperature, cache](const mem::MramArray& array,
                                      std::size_t row, std::size_t col,
                                      util::Rng& rng) -> mem::ReadObservation {
    MRAM_EXPECTS(model.path().bitline.rows == array.rows(),
                 "read model column length must match the array");
    // Live column data under the victim: the sneak network sees whatever
    // the march pattern currently stores in this column.
    std::vector<int> column(array.rows());
    for (std::size_t r = 0; r < array.rows(); ++r) {
      column[r] = array.read(r, col);
    }
    if (!cache->valid || cache->row != row || cache->column != column) {
      cache->op = model.operating_point(row, column);
      cache->row = row;
      cache->column = std::move(column);
      cache->valid = true;
    }
    const auto stored = dev::bit_to_state(array.read(row, col));
    const ReadOutcome outcome =
        model.sample_read(cache->op, stored, array.stray_field_at(row, col),
                          temperature, rng);
    mem::ReadObservation observation;
    observation.observed = outcome.blocked ? -1 : outcome.observed;
    observation.blocked = outcome.blocked;
    observation.disturbed = outcome.disturbed;
    return observation;
  };
}

}  // namespace mram::rdo
