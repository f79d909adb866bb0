#include "doe/runner.hpp"

#include <stdexcept>

namespace ehdoe::doe {

std::vector<double> RunResults::response(const std::string& name) const {
    const std::size_t j = response_index(name);
    std::vector<double> col(responses.rows());
    for (std::size_t i = 0; i < responses.rows(); ++i) col[i] = responses(i, j);
    return col;
}

std::size_t RunResults::response_index(const std::string& name) const {
    for (std::size_t j = 0; j < response_names.size(); ++j) {
        if (response_names[j] == name) return j;
    }
    throw std::invalid_argument("RunResults: unknown response '" + name + "'");
}

}  // namespace ehdoe::doe
